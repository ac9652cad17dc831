package journal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// segmentBytes concatenates dir's segment files in order — the journal's
// on-disk byte stream.
func segmentBytes(t *testing.T, dir string) []byte {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	for _, seg := range segs {
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, raw...)
	}
	return all
}

// AppendBatch must be byte-for-byte and replay-for-replay identical to the
// same records going through N one-record batches: the engine's journal
// writer batches opportunistically, so batch boundaries must never be
// observable in the journal.
func TestAppendBatchMatchesAppend(t *testing.T) {
	single, batched := t.TempDir(), t.TempDir()

	js := mustOpen(t, single, Options{FlushInterval: -1})
	recs := make([]Record, 0, 20)
	for i := int64(1); i <= 20; i++ {
		recs = append(recs, rec(i, "r", "event"))
		if err := appendOne(js, rec(i, "r", "event")); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := js.Close(); err != nil {
		t.Fatal(err)
	}

	jb := mustOpen(t, batched, Options{FlushInterval: -1})
	if err := jb.AppendBatch(recs[:7]); err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if err := jb.AppendBatch(recs[7:]); err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	got := replayAll(t, jb)
	if len(got) != 20 {
		t.Fatalf("replayed %d records, want 20", len(got))
	}
	for i, r := range got {
		if r.Seq != int64(i+1) {
			t.Fatalf("record %d has seq %d, want %d", i, r.Seq, i+1)
		}
	}
	if err := jb.Close(); err != nil {
		t.Fatal(err)
	}

	if a, b := segmentBytes(t, single), segmentBytes(t, batched); !bytes.Equal(a, b) {
		t.Fatalf("batched byte stream differs from single-append stream:\n%s\nvs\n%s", a, b)
	}
}

func TestAppendBatchRotatesAndSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{SegmentBytes: 256, FlushInterval: -1})
	for start := int64(1); start <= 41; start += 10 {
		batch := make([]Record, 0, 10)
		for i := start; i < start+10; i++ {
			batch = append(batch, rec(i, "r", "event"))
		}
		if err := j.AppendBatch(batch); err != nil {
			t.Fatalf("AppendBatch: %v", err)
		}
	}
	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	if len(segs) < 3 {
		t.Fatalf("expected batched appends to rotate segments, got %v", segs)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2 := mustOpen(t, dir, Options{})
	defer j2.Close()
	if got := replayAll(t, j2); len(got) != 50 {
		t.Fatalf("replayed %d records after reopen, want 50", len(got))
	}
}

// A write-through journal must make a batch durable before AppendBatch
// returns: the records are on disk even though Close never runs (crash
// simulation by reading the segment files directly).
func TestAppendBatchWriteThroughDurable(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{FlushInterval: -1})
	defer j.Close()
	batch := []Record{rec(1, "r", "event"), rec(2, "r", "event"), rec(3, "r", "event")}
	if err := j.AppendBatch(batch); err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	raw := segmentBytes(t, dir)
	if n := bytes.Count(raw, []byte("\n")); n != 3 {
		t.Fatalf("found %d records on disk before Close, want 3", n)
	}
}

func TestAppendBatchFenced(t *testing.T) {
	dir := t.TempDir()
	j1 := mustOpen(t, dir, Options{FlushInterval: -1, FencingToken: 1})
	defer j1.Close()
	// A newer owner registers a higher token for the same directory: the
	// old writer's batches must be rejected, exactly like single appends.
	j2 := mustOpen(t, dir, Options{FlushInterval: -1, FencingToken: 2})
	defer j2.Close()

	err := j1.AppendBatch([]Record{rec(1, "r", "event")})
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("AppendBatch on fenced journal = %v, want ErrFenced", err)
	}
	if err := j2.AppendBatch([]Record{rec(1, "r", "event")}); err != nil {
		t.Fatalf("new owner AppendBatch: %v", err)
	}
}

func TestAppendBatchEmptyAndClosed(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{FlushInterval: -1})
	if err := j.AppendBatch(nil); err != nil {
		t.Fatalf("empty AppendBatch: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendBatch([]Record{rec(1, "r", "event")}); !errors.Is(err, ErrClosed) {
		t.Fatalf("AppendBatch after Close = %v, want ErrClosed", err)
	}
}
