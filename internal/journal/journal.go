// Package journal implements the durable run journal of the Bifrost engine:
// an append-only, fsync-batched, segment-rotated log of JSON-lines records
// plus periodic snapshot compaction.
//
// The engine writes one record per observable side effect (run scheduled,
// state entered, routing applied, check concluded, gate decision, pause or
// resume, run finished). On startup it replays the newest snapshot plus
// every record behind it to rebuild unfinished runs, so the paper's
// hours-long multi-phase live tests survive a control-plane restart instead
// of being silently aborted.
//
// Durability model: AppendBatch writes into a buffered writer on the current
// segment and marks the journal dirty; a background flusher hands the
// buffer to the OS and fsyncs it every FlushInterval (group commit), so a
// crash — a killed process as much as a power loss — loses at most the
// last interval's records, typically ending in a torn final line, which
// replay tolerates. Sync forces a flush for records that must not be lost (run
// finished). Segments rotate at SegmentBytes; Compact writes a snapshot
// (atomic tmp+rename) and deletes segments wholly covered by it.
package journal

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Record is one journal entry. Seq is the engine's global event sequence
// (strictly increasing across runs and restarts); Data is the type-specific
// payload, opaque to the journal.
type Record struct {
	Seq  int64           `json:"seq"`
	Time time.Time       `json:"time"`
	Type string          `json:"type"`
	Run  string          `json:"run,omitempty"`
	Data json.RawMessage `json:"data,omitempty"`
}

// Options tune a journal. The zero value selects the defaults.
type Options struct {
	// SegmentBytes rotates the active segment once it grows past this
	// size. Default 4 MiB.
	SegmentBytes int64
	// FlushInterval is the fsync batching window: appended records are
	// guaranteed durable at most this long after AppendBatch returns.
	// Default 25ms. Negative fsyncs on every append (tests, paranoid
	// setups).
	FlushInterval time.Duration
	// CompactBytes is the advisory threshold ShouldCompact uses: once this
	// many bytes of records accumulated since the last snapshot, the owner
	// should build a snapshot and call Compact. Default 1 MiB.
	CompactBytes int64
	// FencingToken switches the journal from flock-based single-writer
	// protection to fencing-token protection (HA mode, where the writer
	// holding the flock may be a dead replica's zombie process). A positive
	// token is compared against the directory's fence file: Open fails with
	// ErrFenced if a newer owner already registered a higher token, and
	// appends/flushes are rejected once a higher token appears — the zombie
	// writer is fenced off instead of corrupting the new owner's view.
	// Zero keeps the classic flock behavior.
	FencingToken int64
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.FlushInterval == 0 {
		o.FlushInterval = 25 * time.Millisecond
	}
	if o.CompactBytes <= 0 {
		o.CompactBytes = 1 << 20
	}
	return o
}

// ErrClosed is returned by operations on a closed journal.
var ErrClosed = errors.New("journal: closed")

// ErrLocked is returned by Open when another process holds the journal: a
// rolling deploy briefly running two engines must fail the second opener
// loudly rather than let both append conflicting records.
var ErrLocked = errors.New("journal: directory locked by another process")

// ErrFenced is returned in fencing mode (Options.FencingToken > 0) when a
// newer owner has registered a higher token for this directory: the caller
// lost ownership (its lease was stolen) and must stop writing.
var ErrFenced = errors.New("journal: fenced by a newer owner")

const (
	segPrefix  = "seg-"
	segSuffix  = ".wal"
	snapPrefix = "snap-"
	snapSuffix = ".json"
)

// segment is one on-disk log file and the seq range it holds.
type segment struct {
	path     string
	index    int
	firstSeq int64 // 0 when empty
	lastSeq  int64 // 0 when empty
}

// Journal is an open run journal. All methods are safe for concurrent use.
type Journal struct {
	dir  string
	opts Options

	mu         sync.Mutex
	segments   []segment // sealed segments, oldest first
	active     segment
	f          *os.File
	w          *bufio.Writer
	activeSize int64
	// dirty: records buffered but not yet written through to the OS.
	// needsSync: records written through but not yet fsynced.
	dirty     bool
	needsSync bool
	closed    bool

	snapshot     []byte // payload of the newest valid snapshot
	snapshotSeq  int64  // seq the snapshot covers (records ≤ this are compacted)
	snapshotPath string

	bytesSinceCompact int64

	// fenced latches once a higher fencing token is observed; every
	// subsequent append or flush fails with ErrFenced.
	fenced bool

	// compactMu serializes Compact calls (the snapshot write happens
	// outside j.mu so appends are not stalled by its fsyncs).
	compactMu sync.Mutex

	lockFile  *os.File
	flushDone chan struct{}
	flushErr  error
}

// snapFile is the on-disk snapshot envelope.
type snapFile struct {
	Seq  int64           `json:"seq"`
	Data json.RawMessage `json:"data"`
}

// Open opens (or creates) the journal in dir. Existing segments are scanned
// so replay and compaction know their seq ranges; a torn final record —
// the expected artifact of a crash mid-append — is tolerated and ignored.
func Open(dir string, opts Options) (*Journal, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{dir: dir, opts: opts, flushDone: make(chan struct{})}
	if opts.FencingToken > 0 {
		// Fencing mode: the previous owner may be a zombie still holding its
		// flock, so ownership is arbitrated by token comparison instead.
		if err := j.registerFence(); err != nil {
			return nil, err
		}
	} else if err := j.acquireLock(); err != nil {
		return nil, err
	}
	if err := j.loadSnapshot(); err != nil {
		j.releaseLock()
		return nil, err
	}
	if err := j.loadSegments(); err != nil {
		j.releaseLock()
		return nil, err
	}
	// Always start a fresh segment: the previous active segment may end in
	// a torn record, and appending after it would hide that tear from
	// future replays.
	if err := j.rotateLocked(); err != nil {
		j.releaseLock()
		return nil, err
	}
	go j.flushLoop()
	return j, nil
}

// acquireLock flocks journal.lock so exactly one process owns the journal.
// The lock is advisory but automatic: a crashed owner's lock vanishes with
// its process, so crash recovery is never blocked by a stale lock file.
func (j *Journal) acquireLock() error {
	f, err := os.OpenFile(filepath.Join(j.dir, "journal.lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return fmt.Errorf("%w: %s", ErrLocked, j.dir)
	}
	j.lockFile = f
	return nil
}

func (j *Journal) releaseLock() {
	if j.lockFile != nil {
		_ = syscall.Flock(int(j.lockFile.Fd()), syscall.LOCK_UN)
		_ = j.lockFile.Close()
		j.lockFile = nil
	}
}

const (
	fenceFile     = "fence"
	fenceLockFile = "fence.lock"
)

// registerFence claims fencing-mode ownership: under a briefly-held flock on
// fence.lock it compares the stored token against ours and, unless a newer
// owner already registered, durably writes our token. Writing the fence
// BEFORE any segment is read or written guarantees the previous owner's
// in-flight appends are rejected no later than its next fence check.
func (j *Journal) registerFence() error {
	lf, err := os.OpenFile(filepath.Join(j.dir, fenceLockFile), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer lf.Close()
	if err := syscall.Flock(int(lf.Fd()), syscall.LOCK_EX); err != nil {
		return fmt.Errorf("journal: fence lock: %w", err)
	}
	defer func() { _ = syscall.Flock(int(lf.Fd()), syscall.LOCK_UN) }()
	cur, err := readFenceToken(j.dir)
	if err != nil {
		return err
	}
	if cur > j.opts.FencingToken {
		return fmt.Errorf("%w: token %d < %d", ErrFenced, j.opts.FencingToken, cur)
	}
	if cur == j.opts.FencingToken {
		return nil // re-open by the same owner epoch
	}
	raw := []byte(fmt.Sprintf("%d\n", j.opts.FencingToken))
	tmp := filepath.Join(j.dir, fenceFile+".tmp")
	if err := writeFileSync(tmp, raw); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(j.dir, fenceFile)); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	syncDir(j.dir)
	return nil
}

// readFenceToken returns the directory's current fence token (0 if none).
func readFenceToken(dir string) (int64, error) {
	raw, err := os.ReadFile(filepath.Join(dir, fenceFile))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("journal: %w", err)
	}
	var tok int64
	if _, err := fmt.Sscanf(string(raw), "%d", &tok); err != nil {
		return 0, fmt.Errorf("journal: corrupt fence file: %w", err)
	}
	return tok, nil
}

// checkFenceLocked rejects writes once a newer owner registered a higher
// token. Callers hold j.mu. The read is one small-file pread per append —
// cheap next to the JSON encode that precedes it — and the result latches,
// so a fenced journal never recovers.
func (j *Journal) checkFenceLocked() error {
	if j.opts.FencingToken <= 0 {
		return nil
	}
	if j.fenced {
		return ErrFenced
	}
	cur, err := readFenceToken(j.dir)
	if err == nil && cur > j.opts.FencingToken {
		j.fenced = true
		// Discard anything buffered but not yet written through: those
		// records were accepted before we learned about the new owner, and
		// writing them now would plant records the new owner never replayed.
		if j.w != nil {
			j.w = bufio.NewWriterSize(j.f, 64<<10)
		}
		j.dirty = false
		return ErrFenced
	}
	return nil
}

func (j *Journal) loadSnapshot() error {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	best := ""
	var bestSeq int64 = -1
	var stale []string
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
			continue
		}
		path := filepath.Join(j.dir, name)
		raw, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		var sf snapFile
		if json.Unmarshal(raw, &sf) != nil {
			// A torn snapshot (crash between write and rename cannot
			// happen, but a damaged disk can): ignore it, an older one or
			// the raw segments still replay.
			stale = append(stale, path)
			continue
		}
		if sf.Seq > bestSeq {
			if best != "" {
				stale = append(stale, best)
			}
			best, bestSeq = path, sf.Seq
			j.snapshot, j.snapshotSeq = sf.Data, sf.Seq
		} else {
			stale = append(stale, path)
		}
	}
	j.snapshotPath = best
	for _, p := range stale {
		_ = os.Remove(p)
	}
	return nil
}

func (j *Journal) loadSegments() error {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		var idx int
		if _, err := fmt.Sscanf(name, segPrefix+"%d"+segSuffix, &idx); err != nil {
			continue
		}
		seg := segment{path: filepath.Join(j.dir, name), index: idx}
		first, last, size, err := scanSegment(seg.path)
		if err != nil {
			return err
		}
		if last == 0 {
			// No decodable records (a clean shutdown's empty active
			// segment, or one whose only write was torn): reclaim it now
			// instead of rescanning it on every startup forever.
			_ = os.Remove(seg.path)
			continue
		}
		seg.firstSeq, seg.lastSeq = first, last
		if last > j.snapshotSeq {
			// Segments fully covered by the snapshot (kept only for
			// boundary-seq markers) add no compaction pressure.
			j.bytesSinceCompact += size
		}
		j.segments = append(j.segments, seg)
	}
	sort.Slice(j.segments, func(a, b int) bool {
		return j.segments[a].index < j.segments[b].index
	})
	return nil
}

// scanSegment reads a segment's records to find its seq range, stopping at
// the first undecodable line (a torn tail) and reporting the byte size of
// the valid prefix.
func scanSegment(path string) (first, last, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	err = readRecords(f, func(rec Record, line []byte) error {
		if first == 0 {
			first = rec.Seq
		}
		last = rec.Seq
		size += int64(len(line))
		return nil
	})
	return first, last, size, err
}

// readRecords streams the decodable prefix of r, calling fn with each record
// and its raw encoded line (newline included). An undecodable or
// unterminated final line ends the stream silently: that is the torn-write
// artifact replay must tolerate.
func readRecords(r *os.File, fn func(Record, []byte) error) error {
	br := bufio.NewReaderSize(r, 64<<10)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			// Missing trailing newline means the final append was torn;
			// any other read error also ends the valid prefix here.
			return nil
		}
		var rec Record
		if json.Unmarshal(line, &rec) != nil || rec.Seq == 0 {
			// Torn or corrupt record: everything after it is untrusted.
			return nil
		}
		if err := fn(rec, line); err != nil {
			return err
		}
	}
}

func segName(index int) string {
	return fmt.Sprintf("%s%08d%s", segPrefix, index, segSuffix)
}

// rotateLocked seals the active segment and opens the next one. Callers
// hold j.mu (or are inside Open, before the journal is shared).
func (j *Journal) rotateLocked() error {
	if j.f != nil {
		if err := j.flushLocked(true); err != nil {
			return err
		}
		if err := j.f.Close(); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		j.segments = append(j.segments, j.active)
	}
	next := 1
	if n := len(j.segments); n > 0 {
		next = j.segments[n-1].index + 1
	}
	j.active = segment{path: filepath.Join(j.dir, segName(next)), index: next}
	f, err := os.OpenFile(j.active.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.f = f
	j.w = bufio.NewWriterSize(f, 64<<10)
	j.activeSize = 0
	return nil
}

// AppendBatch writes records, in order, into the journal's write buffer
// under one lock acquisition: the JSON encoding happens before the lock is
// taken, so N records cost one fence check and one buffered Write. The OS
// sees them at the next flush (the FlushInterval flusher, a Sync, or a
// segment rotation), and they are durable once that flush is fsynced; with
// a negative FlushInterval they are flushed and fsynced before AppendBatch
// returns. The active segment rotates once the batch pushes it past
// SegmentBytes. Batch boundaries are not observable in the journal.
func (j *Journal) AppendBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	buf := make([]byte, 0, 256*len(recs))
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if err := j.checkFenceLocked(); err != nil {
		return err
	}
	if _, err := j.w.Write(buf); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if j.active.firstSeq == 0 {
		j.active.firstSeq = recs[0].Seq
	}
	j.active.lastSeq = recs[len(recs)-1].Seq
	j.activeSize += int64(len(buf))
	j.bytesSinceCompact += int64(len(buf))
	j.dirty = true
	if j.opts.FlushInterval < 0 {
		if err := j.flushLocked(true); err != nil {
			return err
		}
	}
	if j.activeSize >= j.opts.SegmentBytes {
		return j.rotateLocked()
	}
	return nil
}

// Sync forces buffered records to stable storage.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	return j.flushLocked(true)
}

func (j *Journal) flushLocked(fsync bool) error {
	if j.w == nil {
		return nil
	}
	if j.dirty {
		// Re-check the fence right before buffered records reach the file:
		// a writer fenced between AppendBatch and flush must not plant
		// records the new owner's replay never saw. (checkFenceLocked
		// discards the buffer when it latches.)
		if err := j.checkFenceLocked(); err != nil {
			return err
		}
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if j.dirty {
		j.needsSync = true
	}
	j.dirty = false
	if fsync && j.needsSync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		j.needsSync = false
	}
	return nil
}

// flushLoop is the fsync batcher: it wakes every FlushInterval and syncs
// when records were appended since the last pass. The buffer flush happens
// under j.mu, but the fsync itself runs outside it so appenders (and the
// engine's publish pipeline behind them) never stall on disk latency. If
// the segment was rotated or closed between flush and fsync, those paths
// already synced it, so a failure on the captured handle is ignorable.
func (j *Journal) flushLoop() {
	if j.opts.FlushInterval <= 0 {
		<-j.flushDone
		return
	}
	t := time.NewTicker(j.opts.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			j.mu.Lock()
			var f *os.File
			if !j.closed && (j.dirty || j.needsSync) {
				if err := j.flushLocked(false); err != nil && j.flushErr == nil {
					j.flushErr = err
				} else {
					f = j.f
				}
			}
			j.mu.Unlock()
			if f != nil && f.Sync() == nil {
				j.mu.Lock()
				// The fsync covered everything flushed to this segment so
				// far; records appended since remain in dirty.
				if j.f == f {
					j.needsSync = false
				}
				j.mu.Unlock()
			}
		case <-j.flushDone:
			return
		}
	}
}

// Snapshot returns the payload of the newest snapshot (nil if none) and the
// sequence number it covers.
func (j *Journal) Snapshot() ([]byte, int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshot, j.snapshotSeq
}

// Replay streams the records behind the snapshot, oldest first, across all
// segments. Torn or corrupt tails end a segment's stream without error.
// Replay may run on a journal that is also being appended to; it only
// observes records flushed before the call.
//
// Segments ending exactly at the snapshot seq are still replayed: marker
// records (the engine's heartbeats) reuse the newest event's sequence
// number, so they can trail the snapshot boundary while carrying state the
// snapshot lacks. Callers replaying stateful records must therefore skip
// those with Seq ≤ SnapshotSeq themselves.
func (j *Journal) Replay(fn func(Record) error) error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return ErrClosed
	}
	if err := j.flushLocked(false); err != nil {
		j.mu.Unlock()
		return err
	}
	afterSeq := j.snapshotSeq
	paths := make([]string, 0, len(j.segments)+1)
	for _, s := range j.segments {
		if s.lastSeq != 0 && s.lastSeq < afterSeq {
			continue // wholly covered by the snapshot
		}
		paths = append(paths, s.path)
	}
	paths = append(paths, j.active.path)
	j.mu.Unlock()

	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return fmt.Errorf("journal: %w", err)
		}
		err = readRecords(f, func(rec Record, _ []byte) error {
			if rec.Seq < afterSeq {
				return nil
			}
			return fn(rec)
		})
		f.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// ShouldCompact reports whether enough record bytes accumulated since the
// last snapshot that the owner should compact.
func (j *Journal) ShouldCompact() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return !j.closed && j.bytesSinceCompact >= j.opts.CompactBytes
}

// Compact installs a new snapshot covering every record with seq ≤ upToSeq
// and deletes the segments it makes redundant. The snapshot is written to a
// temporary file, fsynced, and renamed, so a crash never leaves a partial
// snapshot in play. The write happens outside j.mu: appenders (and with
// them the engine's publish pipeline) are not stalled behind the snapshot's
// disk I/O.
func (j *Journal) Compact(snapshot []byte, upToSeq int64) error {
	j.compactMu.Lock()
	defer j.compactMu.Unlock()

	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return ErrClosed
	}
	if upToSeq <= j.snapshotSeq {
		j.mu.Unlock()
		return nil // nothing new to cover
	}
	if err := j.flushLocked(true); err != nil {
		j.mu.Unlock()
		return err
	}
	j.mu.Unlock()

	raw, err := json.Marshal(snapFile{Seq: upToSeq, Data: snapshot})
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	final := filepath.Join(j.dir, fmt.Sprintf("%s%016d%s", snapPrefix, upToSeq, snapSuffix))
	tmp := final + ".tmp"
	if err := writeFileSync(tmp, raw); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	syncDir(j.dir)

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	old := j.snapshotPath
	j.snapshot, j.snapshotSeq, j.snapshotPath = snapshot, upToSeq, final
	if old != "" && old != final {
		_ = os.Remove(old)
	}

	// Seal the active segment if the snapshot covers it entirely, then
	// drop every sealed segment whose records are all behind upToSeq.
	// Segments ending exactly at upToSeq survive one more compaction
	// cycle: they may carry boundary-seq marker records (heartbeats) the
	// snapshot does not subsume.
	if j.active.lastSeq != 0 && j.active.lastSeq <= upToSeq {
		if err := j.rotateLocked(); err != nil {
			return err
		}
	}
	kept := j.segments[:0]
	for _, s := range j.segments {
		if s.lastSeq != 0 && s.lastSeq < upToSeq {
			_ = os.Remove(s.path)
			continue
		}
		kept = append(kept, s)
	}
	j.segments = kept
	j.bytesSinceCompact = j.activeSize
	for _, s := range j.segments {
		if s.lastSeq != 0 && s.lastSeq <= upToSeq {
			// Retained only for possible boundary-seq markers; its records
			// are covered by the snapshot, so it adds no compaction
			// pressure (another compaction at this seq would be a no-op).
			continue
		}
		j.bytesSinceCompact += approxSegmentSize(s)
	}
	return nil
}

// approxSegmentSize stats a sealed segment for the compaction accounting;
// on error it counts zero (the accounting is advisory).
func approxSegmentSize(s segment) int64 {
	fi, err := os.Stat(s.path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("journal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("journal: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so renames and removals are durable; best
// effort on filesystems that reject directory syncs.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

// Close flushes, fsyncs, and closes the journal. Further operations return
// ErrClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	close(j.flushDone)
	err := j.flushLocked(true)
	if cerr := j.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("journal: %w", cerr)
	}
	if err == nil {
		err = j.flushErr
	}
	j.f, j.w = nil, nil
	j.releaseLock()
	return err
}
