package engine

// PublishBench pushes one caller-constructed event through the full publish
// pipeline — sequence stamping, mirror reduction, journal append, and SSE
// fan-out — exactly the way run-loop events travel it. It exists for the
// benchmark's `events` workload (bench/bifrost/events.go), which measures
// the pipeline's throughput without enacting strategies; production code
// paths never call it.
func (e *Engine) PublishBench(ev Event) {
	e.publish(nil, ev)
}
