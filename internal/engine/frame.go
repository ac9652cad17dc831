package engine

import (
	"bytes"
	"encoding/json"
	"sync"
	"sync/atomic"
)

// frame is one published event together with its single JSON encoding: the
// publish pipeline encodes each event exactly once, under pubMu, and the
// same bytes then feed the run's journal record and every SSE subscriber
// (httpx.SSEWriter.SendRaw). Frames are pooled and reference-counted —
// publish holds one reference, the journal writer takes one, and the
// bus takes one per subscriber channel it delivers to — so steady-state
// fan-out recycles buffers instead of re-marshaling and re-allocating per
// subscriber.
type frame struct {
	ev   Event
	buf  bytes.Buffer
	enc  *json.Encoder
	refs atomic.Int32
}

var framePool = sync.Pool{New: func() any { return &frame{} }}

// newFrame pools a frame for ev and encodes it once into the frame's reused
// buffer. The caller owns one reference.
func newFrame(ev Event) *frame {
	f := framePool.Get().(*frame)
	f.ev = ev
	f.buf.Reset()
	if f.enc == nil {
		f.enc = json.NewEncoder(&f.buf)
	}
	if err := f.enc.Encode(&f.ev); err != nil {
		panic(err) // engine events are always marshalable
	}
	f.refs.Store(1)
	return f
}

// data returns the event's JSON encoding (without the encoder's trailing
// newline). Valid only while the caller holds a reference.
func (f *frame) data() []byte {
	b := f.buf.Bytes()
	return b[:len(b)-1]
}

// retain takes an additional reference.
func (f *frame) retain() *frame {
	f.refs.Add(1)
	return f
}

// release drops one reference, returning the frame to the pool on the last
// one. Frames stranded in a cancelled subscriber's channel are simply
// collected by the GC (a pool miss, not a leak).
func (f *frame) release() {
	if f.refs.Add(-1) == 0 {
		f.ev = Event{}
		framePool.Put(f)
	}
}
