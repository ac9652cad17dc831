package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func mustOpen(t *testing.T, dir string, opts Options) *Journal {
	t.Helper()
	j, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return j
}

// appendOne appends r as a one-record batch.
func appendOne(j *Journal, r Record) error { return j.AppendBatch([]Record{r}) }

func rec(seq int64, run, typ string) Record {
	return Record{
		Seq:  seq,
		Time: time.Unix(1700000000+seq, 0).UTC(),
		Type: typ,
		Run:  run,
		Data: json.RawMessage(fmt.Sprintf(`{"n":%d}`, seq)),
	}
}

func replayAll(t *testing.T, j *Journal) []Record {
	t.Helper()
	var out []Record
	if err := j.Replay(func(r Record) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{FlushInterval: -1})
	for i := int64(1); i <= 10; i++ {
		if err := appendOne(j, rec(i, "r", "event")); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	got := replayAll(t, j)
	if len(got) != 10 {
		t.Fatalf("replayed %d records, want 10", len(got))
	}
	for i, r := range got {
		if r.Seq != int64(i+1) || r.Run != "r" {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: records survive the restart.
	j2 := mustOpen(t, dir, Options{})
	defer j2.Close()
	if got := replayAll(t, j2); len(got) != 10 {
		t.Fatalf("replayed %d records after reopen, want 10", len(got))
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{SegmentBytes: 256, FlushInterval: -1})
	defer j.Close()
	for i := int64(1); i <= 50; i++ {
		if err := appendOne(j, rec(i, "r", "event")); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	if len(segs) < 3 {
		t.Fatalf("expected rotation to create several segments, got %v", segs)
	}
	if got := replayAll(t, j); len(got) != 50 {
		t.Fatalf("replayed %d records across segments, want 50", len(got))
	}
}

func TestTornFinalRecordTolerated(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{FlushInterval: -1})
	for i := int64(1); i <= 5; i++ {
		if err := appendOne(j, rec(i, "r", "event")); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Simulate a crash mid-append: chop bytes off the tail of the last
	// segment so its final record is torn.
	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	last := segs[len(segs)-1]
	raw, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	j2 := mustOpen(t, dir, Options{FlushInterval: -1})
	defer j2.Close()
	got := replayAll(t, j2)
	if len(got) != 4 {
		t.Fatalf("replayed %d records from torn segment, want 4", len(got))
	}
	// The journal stays appendable after the tear, in a fresh segment.
	if err := appendOne(j2, rec(6, "r", "event")); err != nil {
		t.Fatalf("Append after tear: %v", err)
	}
	if got := replayAll(t, j2); len(got) != 5 {
		t.Fatalf("replayed %d records after post-tear append, want 5", len(got))
	}
}

// TestTruncationFuzz chops the journal at every possible byte offset and
// requires Open+Replay to succeed with a prefix of the original records —
// never an error, never a corrupt record.
func TestTruncationFuzz(t *testing.T) {
	seed := t.TempDir()
	j := mustOpen(t, seed, Options{FlushInterval: -1})
	for i := int64(1); i <= 8; i++ {
		if err := appendOne(j, rec(i, "fuzz", "event")); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	segs, _ := filepath.Glob(filepath.Join(seed, segPrefix+"*"))
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, got %v", segs)
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(raw); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		jj, err := Open(dir, Options{FlushInterval: -1})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		var n int64
		err = jj.Replay(func(r Record) error {
			n++
			if r.Seq != n {
				return fmt.Errorf("cut %d: record %d has seq %d", cut, n, r.Seq)
			}
			return nil
		})
		jj.Close()
		if err != nil {
			t.Fatal(err)
		}
		if n > 8 {
			t.Fatalf("cut %d: replayed %d records from %d-byte prefix", cut, n, cut)
		}
	}
}

func TestCompactionDropsCoveredSegments(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{SegmentBytes: 256, FlushInterval: -1})
	defer j.Close()
	for i := int64(1); i <= 40; i++ {
		if err := appendOne(j, rec(i, "r", "event")); err != nil {
			t.Fatal(err)
		}
	}
	snap := []byte(`{"state":"through-30"}`)
	if err := j.Compact(snap, 30); err != nil {
		t.Fatalf("Compact: %v", err)
	}

	gotSnap, seq := j.Snapshot()
	if seq != 30 || string(gotSnap) != string(snap) {
		t.Fatalf("Snapshot = %q @ %d", gotSnap, seq)
	}
	// Replay yields the boundary record too (callers filter stateful
	// records by seq; boundary-seq markers must not be lost).
	got := replayAll(t, j)
	if len(got) != 11 || got[0].Seq != 30 {
		t.Fatalf("post-compact replay = %d records starting %d, want 11 from 30",
			len(got), got[0].Seq)
	}

	// Reopen: snapshot + tail records both survive.
	j.Close()
	j2 := mustOpen(t, dir, Options{})
	defer j2.Close()
	gotSnap, seq = j2.Snapshot()
	if seq != 30 || string(gotSnap) != string(snap) {
		t.Fatalf("reopened Snapshot = %q @ %d", gotSnap, seq)
	}
	got = replayAll(t, j2)
	if len(got) != 11 || got[0].Seq != 30 || got[10].Seq != 40 {
		t.Fatalf("reopened replay = %+v", got)
	}

	// A second compaction covering everything leaves only the boundary
	// record replayable.
	if err := j2.Compact([]byte(`{"state":"through-40"}`), 40); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, j2); len(got) != 1 || got[0].Seq != 40 {
		t.Fatalf("replay after full compaction = %+v, want just the boundary record", got)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, snapPrefix+"*"))
	if len(snaps) != 1 {
		t.Fatalf("old snapshots not pruned: %v", snaps)
	}
}

// TestBoundarySeqMarkersSurviveCompaction: records reusing the newest seq
// (the engine's heartbeats) appended after a full compaction must still be
// replayed after a reopen — they carry state the snapshot lacks.
func TestBoundarySeqMarkersSurviveCompaction(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{FlushInterval: -1})
	for i := int64(1); i <= 5; i++ {
		if err := appendOne(j, rec(i, "r", "event")); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Compact([]byte(`{}`), 5); err != nil {
		t.Fatal(err)
	}
	// Quiet period: only boundary-seq heartbeats land.
	for k := 0; k < 3; k++ {
		if err := appendOne(j, rec(5, "", "heartbeat")); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	j2 := mustOpen(t, dir, Options{})
	defer j2.Close()
	var beats int
	if err := j2.Replay(func(r Record) error {
		if r.Type == "heartbeat" {
			beats++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if beats != 3 {
		t.Fatalf("replayed %d boundary heartbeats, want 3", beats)
	}
}

// TestOpenPrunesEmptySegments: every boot rotates to a fresh segment; the
// record-less leftovers must not pile up across restarts.
func TestOpenPrunesEmptySegments(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 5; i++ {
		j := mustOpen(t, dir, Options{FlushInterval: -1})
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	if len(segs) != 1 {
		t.Fatalf("%d segments after 5 empty restarts, want 1 (the active one): %v",
			len(segs), segs)
	}
}

func TestShouldCompactThreshold(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{CompactBytes: 300, FlushInterval: -1})
	defer j.Close()
	if j.ShouldCompact() {
		t.Fatal("empty journal wants compaction")
	}
	for i := int64(1); i <= 10; i++ {
		if err := appendOne(j, rec(i, "r", "event")); err != nil {
			t.Fatal(err)
		}
	}
	if !j.ShouldCompact() {
		t.Fatal("journal past threshold does not want compaction")
	}
	if err := j.Compact([]byte(`{}`), 10); err != nil {
		t.Fatal(err)
	}
	if j.ShouldCompact() {
		t.Fatal("freshly compacted journal still wants compaction")
	}
}

func TestBatchedFlushMakesRecordsDurable(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{FlushInterval: 5 * time.Millisecond})
	if err := appendOne(j, rec(1, "r", "event")); err != nil {
		t.Fatal(err)
	}
	// Within the batching window the bytes may still sit in the buffer;
	// after it they must be on disk even without Close or Sync.
	deadline := time.Now().Add(2 * time.Second)
	for {
		raw, _ := os.ReadFile(filepath.Join(dir, segName(1)))
		if strings.Contains(string(raw), `"seq":1`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("record not flushed by the batcher")
		}
		time.Sleep(2 * time.Millisecond)
	}
	j.Close()
}

// TestOpenRejectsSecondWriter: one journal, one owner — a rolling deploy's
// second engine must fail loudly, not interleave records with the first.
func TestOpenRejectsSecondWriter(t *testing.T) {
	dir := t.TempDir()
	j1 := mustOpen(t, dir, Options{FlushInterval: -1})
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrLocked) {
		t.Fatalf("second Open = %v, want ErrLocked", err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	j2.Close()
}

func TestClosedJournalRejectsOperations(t *testing.T) {
	j := mustOpen(t, t.TempDir(), Options{FlushInterval: -1})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := appendOne(j, rec(1, "r", "event")); err != ErrClosed {
		t.Fatalf("AppendBatch after close = %v, want ErrClosed", err)
	}
	if err := j.Sync(); err != ErrClosed {
		t.Fatalf("Sync after close = %v, want ErrClosed", err)
	}
	if err := j.Compact(nil, 1); err != ErrClosed {
		t.Fatalf("Compact after close = %v, want ErrClosed", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}
