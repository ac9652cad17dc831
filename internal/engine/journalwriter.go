package engine

import (
	"errors"
	"sync"

	"bifrost/internal/journal"
)

// journalWriter is the only code that appends engine records. Publishers
// enqueue records while holding pubMu — so the queue order is exactly the
// publish order, per run and globally — and a single writer goroutine
// drains the queue, grouping consecutive same-run records into one
// AppendBatch (one partition lock acquisition and bufio pass per group).
//
// Durability is a per-record wait, decided by publish: a record that must
// be durable before it is visible (a terminal event on any set, every
// event on a write-through set) is followed by a barrier, and publish
// fans its frame out only once the barrier returns. Terminal records ask
// for a partition fsync after their group is appended; on a write-through
// set the append itself fsyncs. Remove, Evict and close use the same
// barrier to drain every record enqueued so far before deleting or closing
// a partition, so a queued record can never resurrect a removed run's
// directory.
//
// The writer takes neither e.mu nor pubMu, so publish may wait on it while
// holding pubMu. It appends to the set it was started with; closeJournal
// stops it before clearing e.journals.
type journalWriter struct {
	e  *Engine
	js *journal.Set
	// writeThrough: every append on js is fsynced before it returns, and
	// every event waits for its record before it is visible.
	writeThrough bool

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []jreq
	stopped bool
	done    chan struct{} // closed when the writer goroutine exits
}

// jreq is one queued journal write, or a barrier marker when doneCh is set.
type jreq struct {
	rec journal.Record
	// f, when set, supplies rec.Data at write time: the record shares the
	// frame's encode-once bytes, and the reference is held until the write
	// completes so the pooled buffer cannot be recycled under the writer.
	f *frame
	// sync requests a partition fsync after this record's group is
	// written (terminal records).
	sync bool
	// doneCh marks a barrier: it is closed once every record queued
	// before it is written (and synced, if requested).
	doneCh chan struct{}
}

func newJournalWriter(e *Engine, js *journal.Set) *journalWriter {
	w := &journalWriter{e: e, js: js, writeThrough: js.FlushInterval() < 0, done: make(chan struct{})}
	w.cond = sync.NewCond(&w.mu)
	go w.loop()
	return w
}

// enqueue queues one record. Callers hold pubMu, which makes the queue
// order the publish order.
func (w *journalWriter) enqueue(req jreq) {
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		// The engine is past drain: drop the record like a fenced append
		// (the journal is closing or closed; nothing durable is lost that
		// the close-time snapshot does not cover).
		if req.f != nil {
			req.f.release()
		}
		return
	}
	w.queue = append(w.queue, req)
	w.cond.Signal()
	w.mu.Unlock()
}

// barrier blocks until every record enqueued before the call has been
// written through to its partition (and fsynced, where requested), or
// until the stopping writer has drained its queue.
func (w *journalWriter) barrier() {
	ch := make(chan struct{})
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		<-w.done
		return
	}
	w.queue = append(w.queue, jreq{doneCh: ch})
	w.cond.Signal()
	w.mu.Unlock()
	<-ch
}

// stopAndDrain writes everything queued, then stops the writer goroutine.
// Records enqueued after stopAndDrain begins are dropped.
func (w *journalWriter) stopAndDrain() {
	w.mu.Lock()
	if !w.stopped {
		w.stopped = true
		w.cond.Signal()
	}
	w.mu.Unlock()
	<-w.done
}

func (w *journalWriter) loop() {
	defer close(w.done)
	for {
		w.mu.Lock()
		for len(w.queue) == 0 && !w.stopped {
			w.cond.Wait()
		}
		batch := w.queue
		w.queue = nil
		stopped := w.stopped
		w.mu.Unlock()

		w.writeBatch(batch)
		if stopped {
			return
		}
	}
}

// writeBatch writes one drained queue slice, grouping consecutive same-run
// records into single AppendBatch calls.
func (w *journalWriter) writeBatch(batch []jreq) {
	recs := make([]journal.Record, 0, len(batch))
	for i := 0; i < len(batch); {
		if batch[i].doneCh != nil {
			close(batch[i].doneCh)
			i++
			continue
		}
		run := batch[i].rec.Run
		j := i
		for j < len(batch) && batch[j].doneCh == nil && batch[j].rec.Run == run {
			j++
		}
		group := batch[i:j]
		recs = recs[:0]
		needSync := false
		for k := range group {
			rec := group[k].rec
			if group[k].f != nil {
				rec.Data = group[k].f.data()
			}
			recs = append(recs, rec)
			needSync = needSync || group[k].sync
		}
		w.appendGroup(run, recs, needSync)
		for k := range group {
			if group[k].f != nil {
				group[k].f.release()
			}
		}
		i = j
	}
}

// appendGroup writes one run's consecutive records to its partition
// (opened on first use with the run's fencing token), counting them:
// journaled on success, fenced when this replica lost the run's ownership
// mid-write (the new owner's replay defines the truth; the records are
// dropped).
func (w *journalWriter) appendGroup(run string, recs []journal.Record, needSync bool) {
	e := w.e
	j, err := w.js.Partition(run, e.fenceFor(run))
	if err != nil {
		if !errors.Is(err, journal.ErrClosed) {
			e.mFenced.Add(float64(len(recs)))
		}
		return
	}
	switch err := j.AppendBatch(recs); {
	case err == nil:
		e.mJournaled.Add(float64(len(recs)))
	case errors.Is(err, journal.ErrFenced):
		e.mFenced.Add(float64(len(recs)))
	}
	if needSync {
		_ = j.Sync()
	}
}
