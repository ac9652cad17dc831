// Per-run journal partitions. A Set manages a root directory holding one
// independent journal per run under runs/<encoded-name>/ — each partition
// has its own lock (or fence), segments, and snapshot compaction, so N
// engine replicas can own disjoint shards of runs over one shared
// directory, and a run's history can be replayed or deleted without
// touching any other run's.
//
// Layout under the root:
//
//	runs/<enc(run)>/seg-NNNNNNNN.wal     per-run segments
//	runs/<enc(run)>/snap-<seq>.json      per-run snapshot
//	runs/<enc(run)>/fence, fence.lock    fencing-token ownership (HA mode)
//
// OpenSet refuses a root holding segments or snapshots directly, the
// single-directory layout from before partitions: it is not migrated.
package journal

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

const runsDir = "runs"

// SetOptions tune a partition set.
type SetOptions struct {
	// Journal holds the per-partition options. FencingToken is ignored
	// here — it is supplied per partition via Set.Partition.
	Journal Options
}

// Set is an open collection of per-run journal partitions. All methods are
// safe for concurrent use.
type Set struct {
	root string
	opts SetOptions

	mu     sync.Mutex
	parts  map[string]*Journal // open partitions by run name
	closed bool
}

// OpenSet opens (or creates) the partition set rooted at root. Partitions
// are opened lazily by Partition; OpenSet itself only prepares the
// directory.
func OpenSet(root string, opts SetOptions) (*Set, error) {
	opts.Journal = opts.Journal.withDefaults()
	opts.Journal.FencingToken = 0
	if err := refuseLegacy(root); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(root, runsDir), 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Set{root: root, opts: opts, parts: make(map[string]*Journal, 8)}, nil
}

// Root returns the set's root directory.
func (s *Set) Root() string { return s.root }

// FlushInterval returns the partitions' fsync batching window
// (Options.FlushInterval, defaulted): negative means every append is
// fsynced before it returns.
func (s *Set) FlushInterval() time.Duration { return s.opts.Journal.FlushInterval }

// Partition opens (or creates) the journal partition for run, with the
// given fencing token (0 = classic flock protection). An already-open
// partition is returned as-is; close it with CloseRun before reopening
// under a newer token.
func (s *Set) Partition(run string, token int64) (*Journal, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if j, ok := s.parts[run]; ok {
		return j, nil
	}
	opts := s.opts.Journal
	opts.FencingToken = token
	j, err := Open(s.partitionDir(run), opts)
	if err != nil {
		return nil, err
	}
	s.parts[run] = j
	return j, nil
}

// Get returns the already-open partition for run, if any.
func (s *Set) Get(run string) (*Journal, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.parts[run]
	return j, ok
}

// CloseRun closes run's partition (if open) without deleting it.
func (s *Set) CloseRun(run string) error {
	s.mu.Lock()
	j := s.parts[run]
	delete(s.parts, run)
	s.mu.Unlock()
	if j == nil {
		return nil
	}
	return j.Close()
}

// Remove closes and deletes run's partition directory: the run's durable
// history is gone. Removing a partition that does not exist is a no-op.
func (s *Set) Remove(run string) error {
	if err := s.CloseRun(run); err != nil && !errors.Is(err, ErrFenced) {
		return err
	}
	dir := s.partitionDir(run)
	if err := os.RemoveAll(dir); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	syncDir(filepath.Join(s.root, runsDir))
	return nil
}

// List returns the run names that have partition directories on disk,
// sorted, whether or not they are open.
func (s *Set) List() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(s.root, runsDir))
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var runs []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name, err := decodePartitionName(e.Name())
		if err != nil {
			continue // not one of ours
		}
		runs = append(runs, name)
	}
	sort.Strings(runs)
	return runs, nil
}

// Each calls fn for every open partition. The set lock is not held during
// fn, so fn may call back into the set.
func (s *Set) Each(fn func(run string, j *Journal)) {
	s.mu.Lock()
	open := make(map[string]*Journal, len(s.parts))
	for run, j := range s.parts {
		open[run] = j
	}
	s.mu.Unlock()
	for run, j := range open {
		fn(run, j)
	}
}

// Close closes every open partition. Further operations return ErrClosed.
func (s *Set) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	open := s.parts
	s.parts = nil
	s.mu.Unlock()
	var firstErr error
	for _, j := range open {
		if err := j.Close(); err != nil && !errors.Is(err, ErrFenced) && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (s *Set) partitionDir(run string) string {
	return filepath.Join(s.root, runsDir, encodePartitionName(run))
}

// encodePartitionName maps a run name to a filesystem-safe directory name.
// Alphanumerics, '.', '_' and '-' pass through; every other byte becomes
// %XX, and a leading '.' is escaped so partitions are never dotfiles. The
// encoding is reversible (decodePartitionName) so List can report run
// names without a sidecar manifest.
func encodePartitionName(run string) string {
	var b strings.Builder
	for i := 0; i < len(run); i++ {
		c := run[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '-', c == '.' && i > 0:
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	return b.String()
}

func decodePartitionName(enc string) (string, error) {
	var b strings.Builder
	for i := 0; i < len(enc); i++ {
		c := enc[i]
		if c != '%' {
			b.WriteByte(c)
			continue
		}
		if i+2 >= len(enc) {
			return "", fmt.Errorf("journal: truncated escape in %q", enc)
		}
		var v int
		if _, err := fmt.Sscanf(enc[i+1:i+3], "%02X", &v); err != nil {
			return "", fmt.Errorf("journal: bad escape in %q", enc)
		}
		b.WriteByte(byte(v))
		i += 2
	}
	return b.String(), nil
}

// refuseLegacy fails on a root holding segments or snapshots directly: a
// journal written before partitions, whose runs this set cannot see.
func refuseLegacy(root string) error {
	entries, err := os.ReadDir(root)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix) ||
			strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapSuffix) {
			return fmt.Errorf("journal: %s holds a pre-partition journal (%s), which is not supported; move it aside or point the engine at an empty directory", root, name)
		}
	}
	return nil
}
