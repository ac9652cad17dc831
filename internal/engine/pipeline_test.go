package engine

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bifrost/internal/core"
	"bifrost/internal/journal"
)

// readPartitionRecords parses every record in a run's partition directly
// from its segment files — what a crash at this instant would leave behind.
// A final line still being written (no newline yet) is a torn tail, which
// replay skips too.
func readPartitionRecords(t *testing.T, root, run string) []journal.Record {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(root, "runs", run, "seg-*"))
	if err != nil {
		t.Fatal(err)
	}
	var out []journal.Record
	for _, seg := range segs {
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(raw), "\n")
		for _, line := range lines[:len(lines)-1] {
			if line == "" {
				continue
			}
			var rec journal.Record
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("corrupt record %q: %v", line, err)
			}
			out = append(out, rec)
		}
	}
	return out
}

// With buffered flushing the async journal writer owns the appends. A
// terminal publish must still be a durability point: when publish returns,
// every record of that run enqueued before it — and the terminal record
// itself — is on disk in publish order, even though nothing was closed and
// the flush interval is far in the future.
func TestAsyncWriterTerminalDurabilityAndOrder(t *testing.T) {
	dir := t.TempDir()
	js, err := OpenJournal(dir, journal.Options{FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	e := New(WithJournalSet(js))
	defer e.Shutdown()
	if e.jw == nil {
		t.Fatal("journaled engine must start the journal writer")
	}

	now := time.Now()
	for i := 0; i < 100; i++ {
		e.publish(nil, Event{Strategy: "a", Type: EventCheckExecuted, Time: now})
		e.publish(nil, Event{Strategy: "b", Type: EventCheckExecuted, Time: now})
	}
	e.publish(nil, Event{Strategy: "a", Type: EventCompleted, Time: now})

	recs := readPartitionRecords(t, dir, "a")
	if len(recs) != 101 {
		t.Fatalf("run a has %d records on disk after terminal publish, want 101", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq <= recs[i-1].Seq {
			t.Fatalf("records out of publish order: seq %d after %d", recs[i].Seq, recs[i-1].Seq)
		}
	}
	last := recs[len(recs)-1]
	var ev Event
	if err := json.Unmarshal(last.Data, &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Type != EventCompleted {
		t.Fatalf("last durable record is %q, want completed", ev.Type)
	}
	if ev.Seq != last.Seq {
		t.Fatalf("encode-once payload seq %d disagrees with record seq %d", ev.Seq, last.Seq)
	}
}

// Suspend must drain the writer before closing the set: every queued record
// survives into the reopened journal, and replay observes the same publish
// order (heartbeat-free check: non-terminal run, long flush interval, no
// explicit sync anywhere).
func TestAsyncWriterDrainsOnSuspend(t *testing.T) {
	dir := t.TempDir()
	js, err := OpenJournal(dir, journal.Options{FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	e := New(WithJournalSet(js))
	now := time.Now()
	for i := 0; i < 50; i++ {
		e.publish(nil, Event{Strategy: "r", Type: EventCheckExecuted, Time: now})
	}
	e.Suspend()

	recs := readPartitionRecords(t, dir, "r")
	// The final close-time snapshot compacts the partition; whatever
	// segments remain must contain no gaps relative to what they retain,
	// and the set must reopen cleanly with the records replayable.
	js2, err := OpenJournal(dir, journal.Options{FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer js2.Close()
	j, err := js2.Partition("r", 0)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := j.Replay(func(rec journal.Record) error {
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n == 0 && len(recs) == 0 {
		t.Fatal("suspend lost every queued record")
	}
}

// Remove's barrier: records still queued in the async writer must not
// re-create a removed run's partition directory.
func TestRemoveAfterAsyncAppendsLeavesNoPartition(t *testing.T) {
	dir := t.TempDir()
	js, err := OpenJournal(dir, journal.Options{FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	e := New(WithJournalSet(js))
	defer e.Shutdown()
	now := time.Now()
	for i := 0; i < 20; i++ {
		e.publish(nil, Event{Strategy: "gone", Type: EventCheckExecuted, Time: now})
	}
	e.publish(nil, Event{Strategy: "gone", Type: EventCompleted, Time: now})
	if err := e.Remove("gone"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "runs", "gone")); !os.IsNotExist(err) {
		t.Fatalf("partition directory survived removal (stat err=%v)", err)
	}
}

// onDisk reports whether recs holds the event record with sequence seq.
func onDisk(recs []journal.Record, seq int64) bool {
	for _, rec := range recs {
		if rec.Type == recEvent && rec.Seq == seq {
			return true
		}
	}
	return false
}

// TestTerminalDurableBeforeVisible pins the per-record durability rule:
// a record that must be durable is on disk before its event is visible.
// The test reads the run's segment files as each event reaches a
// subscriber, and once the replay ring shows the terminal event. On a
// buffered set the terminal record must be there; on a write-through set
// every event's record must.
func TestTerminalDurableBeforeVisible(t *testing.T) {
	for _, tc := range []struct {
		name  string
		flush time.Duration
		every bool // every event must be on disk, not only the terminal one
	}{
		{"buffered", time.Hour, false},
		{"write-through", -1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			js, err := OpenJournal(dir, journal.Options{FlushInterval: tc.flush})
			if err != nil {
				t.Fatal(err)
			}
			e := New(WithJournalSet(js))
			defer e.Shutdown()
			events, cancel := e.Subscribe(256)
			defer cancel()

			s := canaryStrategy(core.ConstEvaluator(true), time.Millisecond, 2)
			if _, err := e.Enact(s); err != nil {
				t.Fatal(err)
			}
			delivered, inRing := false, false
			for deadline := time.Now().Add(10 * time.Second); !delivered || !inRing; {
				if time.Now().After(deadline) {
					t.Fatalf("run never completed (delivered %v, in ring %v)", delivered, inRing)
				}
				for _, ev := range e.RecentEvents(1) {
					if !inRing && ev.Strategy == s.Name && ev.Type == EventCompleted {
						inRing = true
						if !onDisk(readPartitionRecords(t, dir, s.Name), ev.Seq) {
							t.Errorf("replay ring shows completed (seq %d) before its record is on disk", ev.Seq)
						}
					}
				}
				select {
				case ev := <-events:
					if ev.Strategy != s.Name {
						continue
					}
					delivered = ev.Type == EventCompleted
					if (tc.every || delivered) && !onDisk(readPartitionRecords(t, dir, s.Name), ev.Seq) {
						t.Errorf("%s (seq %d) delivered before its record is on disk", ev.Type, ev.Seq)
					}
				default:
				}
			}
		})
	}
}
