package engine

import (
	"context"
	"time"

	"bifrost/internal/core"
)

// interruptMsg asks the state loop to end the current state before its
// timer: target names the state to jump to directly (exception fallbacks,
// burn-rate rollbacks), or is empty to end the state now and let δ decide
// from the aggregated outcomes (a sequential check concluding early).
type interruptMsg struct {
	target string
	// cause labels the transition: "exception", "burnrate", "sequential",
	// "changepoint".
	cause string
}

// checkRunner is one check's τ timer within a state (§3.2 and Figure 3 of
// the paper): its schedule and what δ needs of its results. The run loop
// owns it: the loop starts each due execution, records each result and
// reads the outcome when the state ends, so nothing here is shared. Every
// recorded execution is published as check_executed, which the run's
// status reduces into Status.Checks. Statistical checks (compare,
// sequential, burnrate, changepoint) run their Analyzer instead of the
// boolean evaluator and carry a typed Verdict.
type checkRunner struct {
	check *core.Check
	// scheduled is how many timed executions the state runs, started how
	// many of them began. At most one is in flight. due is when the next
	// one starts: Interval after the previous one was due, or when the
	// previous one ended if that is later. Timer and dispatch latency
	// thus never push the schedule back, while a query that overruns its
	// slot does: no execution is dropped, and none is run early to catch
	// up.
	scheduled, started int
	inflight           bool
	due                time.Time

	// successes counts a basic check's passing executions, lastVerdict is
	// a statistical check's latest verdict: what mappedOutcome maps.
	successes   int
	lastVerdict core.Verdict
	// concluded marks a sequential or changepoint check's sticky decision.
	concluded bool
}

// execResult is what one execution of the state's check number check
// returned.
type execResult struct {
	check   int
	ok      bool
	verdict core.Verdict
	err     error
}

// newCheckRunner arms c's schedule for a state entered at entry whose
// timer runs for window (0: the state has no duration). Following Figure 3
// of the paper, execution k is nominally due at entry + k·Interval, the
// first at entry itself. A state with a duration schedules the executions
// nominally due before its end, capped at the check's n; one without
// schedules n. Checks without an Interval run once when the state ends.
func newCheckRunner(c *core.Check, entry time.Time, window time.Duration) *checkRunner {
	// Analyzers that accumulate evidence across executions (the
	// sequential check's SPRT) restart fresh each time the state is
	// (re-)entered.
	if ra, ok := c.Analyze.(core.ResettableAnalyzer); ok {
		ra.Reset()
	}
	cr := &checkRunner{check: c, due: entry}
	if c.Interval > 0 {
		cr.scheduled = c.ExecutionsOrDefault()
		if window > 0 {
			cr.scheduled = min(cr.scheduled, int((window-1)/c.Interval)+1)
		}
	}
	return cr
}

// evaluate performs one execution of c. It touches no runner state, so the
// run loop can run it on a short-lived goroutine.
func evaluate(ctx context.Context, c *core.Check) execResult {
	if c.Analyze != nil {
		v, err := c.Analyze.Analyze(ctx)
		return execResult{verdict: v, err: err}
	}
	ok, err := c.Eval.Evaluate(ctx)
	return execResult{ok: ok, err: err}
}

// start launches the next scheduled execution on a goroutine that reports
// on finished.
func (cr *checkRunner) start(ctx context.Context, idx int, finished chan<- execResult) {
	cr.started++
	cr.inflight = true
	cr.due = cr.due.Add(cr.check.Interval)
	c := cr.check
	go func() {
		res := evaluate(ctx, c)
		res.check = idx
		finished <- res
	}()
}

// runOnce performs one execution in the run loop itself: the end-of-state
// execution of a check without a timer, or the final fresh one a
// statistical check gets when a sequential gate ends the state early. The
// state is already ending, so an interrupt it asks for is not taken.
func (cr *checkRunner) runOnce(ctx context.Context, r *Run, state string) {
	cr.record(ctx, r, state, evaluate(ctx, cr.check))
}

// record counts one finished execution, publishes it, and returns the
// interrupt its result asks for, if any. ctx is the context the execution
// ran under. A failed execution whose context was cancelled (by an
// interrupt, an operator decision, pause, suspend, evict or abort) is
// discarded whatever the check's kind: the aborted query says nothing
// about the system, so it neither counts as a failure nor overwrites the
// check's last real verdict.
func (cr *checkRunner) record(ctx context.Context, r *Run, state string, res execResult) *interruptMsg {
	cr.inflight = false
	now := r.engine.clk.Now()
	if now.After(cr.due) {
		// This execution overran its successor's slot: the successor
		// starts now, and the rest of the schedule moves back with it.
		cr.due = now
	}
	if (res.err != nil || res.verdict.Err != "") && ctx.Err() != nil {
		return nil
	}
	r.engine.mChecks.Inc()
	c := cr.check
	if c.Analyze == nil {
		ok := res.ok && res.err == nil
		if ok {
			cr.successes++
		}
		ev := Event{
			Type: EventCheckExecuted, State: state, Check: c.Name,
			Outcome: boolToInt(ok), Time: now,
		}
		if res.err != nil {
			ev.Detail = res.err.Error() // reduced into CheckStatus.LastError
		}
		r.publish(ev)
		if ok || c.Kind != core.ExceptionCheck {
			return nil
		}
		// Exception semantics: a single failed execution triggers the
		// state transition immediately.
		r.publish(Event{
			Type: EventExceptionTriggered, State: state, Check: c.Name,
			Detail: c.Fallback, Time: now,
		})
		return &interruptMsg{target: c.Fallback, cause: "exception"}
	}

	v := res.verdict
	if res.err != nil {
		// A broken analysis (misconfiguration, unreachable provider) is
		// inconclusive for this execution; the error surfaces in status.
		v = core.Verdict{Decision: core.DecisionContinue, Err: res.err.Error()}
	}
	cr.lastVerdict = v
	r.publish(Event{
		Type: EventCheckExecuted, State: state, Check: c.Name,
		Outcome: boolToInt(v.Decision == core.DecisionPass), Verdict: &v, Time: now,
	})

	ev := Event{State: state, Check: c.Name, Detail: string(v.Decision), Verdict: &v, Time: now}
	var intr *interruptMsg
	switch c.Kind {
	case core.SequentialCheck:
		if v.Decision == core.DecisionContinue || cr.concluded {
			return nil
		}
		// The gate concluded: end the state now. A failing conclusion
		// with a configured fallback jumps there directly; otherwise the
		// early end goes through the normal δ aggregation, where this
		// check maps to 1 (pass) or 0 (fail).
		cr.concluded = true
		ev.Type = EventCheckConcluded
		intr = &interruptMsg{cause: "sequential"}
		if v.Decision == core.DecisionFail {
			intr.target = c.Fallback
		}
	case core.ChangePointCheck:
		// A changepoint check only ever concludes by detecting a shift; a
		// stationary trajectory stays inconclusive until the state ends.
		// A shift ends the state now, jumping straight to the fallback
		// when one is configured, otherwise through δ where this check's
		// verdict maps to 0.
		if v.Decision != core.DecisionFail || cr.concluded {
			return nil
		}
		cr.concluded = true
		ev.Type = EventCheckConcluded
		intr = &interruptMsg{target: c.Fallback, cause: "changepoint"}
	case core.BurnRateCheck:
		if v.Decision != core.DecisionFail {
			return nil
		}
		ev.Type, ev.Detail = EventBurnRateTriggered, c.Fallback
		intr = &interruptMsg{target: c.Fallback, cause: "burnrate"}
	default:
		return nil
	}
	// The conclusion is published even when another check's interrupt
	// already ended the state: the decision was reached and must be
	// observable.
	r.publish(ev)
	return intr
}

// mappedOutcome aggregates the execution results (Σ f_j) and maps basic
// checks through their output mapping Out_ci. Exception checks contribute
// their raw success count, which equals n when all executions succeeded.
// Statistical checks contribute their latest verdict: pass → 1, fail → 0,
// still-continue → InconclusivePass.
func (cr *checkRunner) mappedOutcome() (int, error) {
	if cr.check.Kind.Statistical() {
		switch cr.lastVerdict.Decision {
		case core.DecisionPass:
			return 1, nil
		case core.DecisionFail:
			return 0, nil
		default:
			if cr.check.InconclusivePass {
				return 1, nil
			}
			return 0, nil
		}
	}
	if cr.check.Kind == core.ExceptionCheck {
		return cr.successes, nil
	}
	return cr.check.MapOutcome(cr.successes)
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
