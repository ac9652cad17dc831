package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOpenSetRefusesPrePartitionJournal: a root holding segments directly,
// the layout from before partitions, is refused with an error naming it
// rather than opened as an empty set that silently hides its runs.
func TestOpenSetRefusesPrePartitionJournal(t *testing.T) {
	root := t.TempDir()
	j := mustOpen(t, root, Options{FlushInterval: -1})
	if err := appendOne(j, rec(1, "alpha", "event")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, err := OpenSet(root, SetOptions{Journal: Options{FlushInterval: -1}})
	if err == nil || !strings.Contains(err.Error(), root) {
		t.Fatalf("OpenSet over a pre-partition journal = %v, want an error naming %s", err, root)
	}
}

// TestPartitionTruncationFuzz extends the torn-tail fuzz to the partition
// layout: chopping one run's segment at every byte offset must yield a clean
// prefix of that run's records on reopen — and must never disturb a sibling
// partition in the same set.
func TestPartitionTruncationFuzz(t *testing.T) {
	seed := t.TempDir()
	set, err := OpenSet(seed, SetOptions{Journal: Options{FlushInterval: -1}})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := set.Partition("victim", 0)
	if err != nil {
		t.Fatal(err)
	}
	bystander, err := set.Partition("bystander", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 6; i++ {
		if err := appendOne(victim, rec(i, "victim", "event")); err != nil {
			t.Fatal(err)
		}
		if err := appendOne(bystander, rec(i, "bystander", "event")); err != nil {
			t.Fatal(err)
		}
	}
	set.Close()

	victimSeg := filepath.Join(seed, runsDir, encodePartitionName("victim"), segName(1))
	raw, err := os.ReadFile(victimSeg)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(raw); cut++ {
		dir := t.TempDir()
		copyTree(t, seed, dir)
		cutSeg := filepath.Join(dir, runsDir, encodePartitionName("victim"), segName(1))
		if err := os.WriteFile(cutSeg, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}

		s, err := OpenSet(dir, SetOptions{Journal: Options{FlushInterval: -1}})
		if err != nil {
			t.Fatalf("cut %d: OpenSet: %v", cut, err)
		}
		v, err := s.Partition("victim", 0)
		if err != nil {
			t.Fatalf("cut %d: Partition victim: %v", cut, err)
		}
		var n int64
		err = v.Replay(func(r Record) error {
			n++
			if r.Seq != n {
				return fmt.Errorf("cut %d: victim record %d has seq %d", cut, n, r.Seq)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n > 6 {
			t.Fatalf("cut %d: victim replayed %d records from a %d-byte prefix", cut, n, cut)
		}
		// The torn partition stays appendable in a fresh segment.
		if err := appendOne(v, rec(n+1, "victim", "event")); err != nil {
			t.Fatalf("cut %d: append after tear: %v", cut, err)
		}
		// The sibling partition is whole regardless of where victim tore.
		b, err := s.Partition("bystander", 0)
		if err != nil {
			t.Fatalf("cut %d: Partition bystander: %v", cut, err)
		}
		var m int64
		err = b.Replay(func(r Record) error {
			m++
			if r.Seq != m {
				return fmt.Errorf("cut %d: bystander record %d has seq %d", cut, m, r.Seq)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if m != 6 {
			t.Fatalf("cut %d: bystander replayed %d records, want 6", cut, m)
		}
		s.Close()
	}
}

// copyTree duplicates a seeded set directory so each fuzz iteration mutates
// its own copy.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, raw, 0o644)
	})
	if err != nil {
		t.Fatalf("copy seed tree: %v", err)
	}
}
