package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"bifrost/internal/clock"
	"bifrost/internal/core"
	"bifrost/internal/dsl"
	"bifrost/internal/journal"
	"bifrost/internal/proxy"
)

// holdStrategy keeps its first phase open for 30 minutes so tests can crash
// the engine mid-phase deterministically.
const holdStrategy = `
name: hold-run
deployment:
  services:
    - service: svc
      versions:
        - name: stable
          endpoint: 127.0.0.1:9001
        - name: canary
          endpoint: 127.0.0.1:9002
strategy:
  phases:
    - phase: canary
      duration: 30m
      routes:
        - route:
            service: svc
            weights: {stable: 90, canary: 10}
      on:
        success: end
    - phase: end
      routes:
        - route:
            service: svc
            weights: {canary: 100}
`

func openTestJournal(t *testing.T, dir string) *journal.Set {
	t.Helper()
	js, err := OpenJournal(dir, journal.Options{FlushInterval: -1})
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	return js
}

// eventually polls cond for up to two seconds of real time, advancing
// nothing: recovery loops run on goroutines and need a moment to act.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestCrashRecoveryResumesShippedCanaryMidPhase is the end-to-end crash
// drill from the issue: schedule the shipped slo-guarded-canary strategy,
// kill the engine five simulated minutes into the 15-minute canary phase
// (keep the journal directory), restart, and require the run to resume in
// the same phase with elapsed time preserved, the proxy reconfigured, and —
// after a third restart — the finished run replayed exactly once.
func TestCrashRecoveryResumesShippedCanaryMidPhase(t *testing.T) {
	raw, err := os.ReadFile("../../strategies/slo-guarded-canary.yaml")
	if err != nil {
		t.Fatalf("read shipped strategy: %v", err)
	}
	src := string(raw)
	strategy, err := dsl.Compile(src)
	if err != nil {
		t.Fatalf("compile shipped strategy: %v", err)
	}
	name := strategy.Name

	dir := t.TempDir()
	clk := clock.NewManual(time.Date(2026, 7, 30, 9, 0, 0, 0, time.UTC))

	// A real in-process proxy fronting the checkout service, surviving the
	// engine "crash" the way production proxies would.
	p, err := proxy.New("checkout", proxy.Config{
		Service:    "checkout",
		Generation: 0,
		Backends: []proxy.Backend{
			{Version: "stable", URL: "http://127.0.0.1:9001", Weight: 1},
		},
	})
	if err != nil {
		t.Fatalf("proxy.New: %v", err)
	}
	defer p.Close()
	lc := NewLocalConfigurator()
	lc.Register("checkout", p)

	eng1 := New(WithClock(clk), WithConfigurator(lc), WithJournalSet(openTestJournal(t, dir)))
	if _, err := eng1.EnactSource(strategy, src); err != nil {
		t.Fatalf("EnactSource: %v", err)
	}
	eventually(t, "initial routing applied", func() bool {
		return p.Config().Generation > 0
	})
	entered := clk.Now()

	// Five simulated minutes of canary: the statistical checks tick (their
	// prometheus provider is unreachable, so every verdict is an
	// inconclusive continue) and their executions land in the journal.
	for i := 0; i < 10; i++ {
		clk.Advance(30 * time.Second)
		time.Sleep(2 * time.Millisecond)
	}
	eventually(t, "check executions past the 4-minute mark", func() bool {
		for _, ev := range eng1.RunEvents(name, 0) {
			if ev.Type == EventCheckExecuted && !ev.Time.Before(entered.Add(4*time.Minute)) {
				return true
			}
		}
		return false
	})
	genBeforeCrash := p.Config().Generation
	preCrashSeq := eng1.RecentEvents(1)[0].Seq

	// "Crash": drop the engine without terminal records, keep the journal.
	eng1.Suspend()

	// Restart on the same journal directory.
	eng2 := New(WithClock(clk), WithConfigurator(lc), WithJournalSet(openTestJournal(t, dir)))
	report, err := eng2.Recover(dsl.Compile)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(report.Resumed) != 1 || report.Finished != 0 || len(report.Skipped) != 0 {
		t.Fatalf("report = %d resumed / %d finished / %v skipped, want 1/0/none",
			len(report.Resumed), report.Finished, report.Skipped)
	}
	r2 := report.Resumed[0]

	// The proxy receives the re-applied routing config with a generation
	// above everything from before the crash.
	eventually(t, "routing re-applied after recovery", func() bool {
		return p.Config().Generation > genBeforeCrash
	})
	cfg := p.Config()
	var candidateShare float64
	for _, b := range cfg.Backends {
		if b.Version == "candidate" {
			candidateShare = b.Weight
		}
	}
	if candidateShare != 0.05 {
		t.Errorf("candidate share after recovery = %v, want 0.05", candidateShare)
	}

	st := r2.Status()
	if !st.Recovered {
		t.Error("status not marked recovered")
	}
	if st.Current != "canary" {
		t.Fatalf("resumed in state %q, want canary", st.Current)
	}
	if st.State != RunRunning {
		t.Fatalf("resumed run state = %s, want running", st.State)
	}

	// Elapsed-in-state was preserved: about five minutes already passed,
	// so the 15-minute phase has ~10 minutes left — not the full 15. (The
	// loop backdates EnteredAt just after re-entry; poll for it.)
	eventually(t, "elapsed-in-state restored", func() bool {
		return clk.Now().Sub(r2.Status().EnteredAt) >= 3*time.Minute
	})
	elapsed := clk.Now().Sub(r2.Status().EnteredAt)
	if elapsed < 3*time.Minute || elapsed > 6*time.Minute {
		t.Fatalf("recovered elapsed-in-state = %v, want ≈5m", elapsed)
	}
	remaining := 15*time.Minute - elapsed

	clk.Advance(remaining - time.Minute)
	time.Sleep(5 * time.Millisecond)
	if cur := r2.Status().Current; cur != "canary" {
		t.Fatalf("left canary after %v, before the phase timer: now in %q",
			remaining-time.Minute, cur)
	}
	// Crossing the phase boundary fires δ: the inconclusive checks fail
	// the gate and the run rolls back (a final state), completing the run.
	finishDeadline := time.Now().Add(10 * time.Second)
	for !r2.Done() && time.Now().Before(finishDeadline) {
		clk.Advance(30 * time.Second)
		time.Sleep(2 * time.Millisecond)
	}
	if !r2.Done() {
		t.Fatalf("run did not finish after the phase timer; status %+v", r2.Status())
	}
	st = r2.Status()
	if st.State != RunCompleted {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	if len(st.Path) == 0 || st.Path[0].From != "canary" {
		t.Fatalf("path = %+v, want first transition out of canary", st.Path)
	}

	// Sequence numbers continue across the restart (SSE Last-Event-ID
	// stays valid), and the durable history shows both lives of the run.
	events := eng2.RunEvents(name, 0)
	var completions, entries, recoveries int
	var maxSeq int64
	for _, ev := range events {
		if ev.Seq <= maxSeq {
			t.Fatalf("history out of order: seq %d after %d", ev.Seq, maxSeq)
		}
		maxSeq = ev.Seq
		switch {
		case ev.Type == EventCompleted:
			completions++
		case ev.Type == EventStateEntered && ev.State == "canary":
			entries++
		case ev.Type == EventRecovered:
			recoveries++
		}
	}
	if completions != 1 {
		t.Errorf("completed events = %d, want exactly 1", completions)
	}
	if entries != 2 {
		t.Errorf("canary state_entered events = %d, want 2 (initial + recovery)", entries)
	}
	if recoveries != 1 {
		t.Errorf("recovered events = %d, want 1", recoveries)
	}
	if maxSeq <= preCrashSeq {
		t.Errorf("post-recovery seq %d did not continue past pre-crash %d", maxSeq, preCrashSeq)
	}

	// Third restart: the finished run must replay as history, exactly
	// once — no resumed loop, no duplicate finished event, no routing push.
	genAfterFinish := p.Config().Generation
	eng2.Suspend()
	eng3 := New(WithClock(clk), WithConfigurator(lc), WithJournalSet(openTestJournal(t, dir)))
	defer eng3.Shutdown()
	report3, err := eng3.Recover(dsl.Compile)
	if err != nil {
		t.Fatalf("second Recover: %v", err)
	}
	if len(report3.Resumed) != 0 || report3.Finished != 1 {
		t.Fatalf("report after finish = %d resumed / %d finished, want 0/1",
			len(report3.Resumed), report3.Finished)
	}
	r3, ok := eng3.Run(name)
	if !ok {
		t.Fatal("finished run not listed after restart")
	}
	if st := r3.Status(); st.State != RunCompleted || !r3.Done() {
		t.Fatalf("replayed finished run = %s, want completed", st.State)
	}
	completions = 0
	for _, ev := range eng3.RunEvents(name, 0) {
		if ev.Type == EventCompleted {
			completions++
		}
	}
	if completions != 1 {
		t.Errorf("completed events after second replay = %d, want exactly 1", completions)
	}
	time.Sleep(5 * time.Millisecond)
	if g := p.Config().Generation; g != genAfterFinish {
		t.Errorf("replaying a finished run re-applied routing: generation %d → %d",
			genAfterFinish, g)
	}
}

func TestRecoveryRestoresPausedRun(t *testing.T) {
	strategy, err := dsl.Compile(holdStrategy)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	dir := t.TempDir()
	clk := clock.NewManual(time.Date(2026, 7, 30, 9, 0, 0, 0, time.UTC))
	cfg := &recordingConfigurator{}

	eng1 := New(WithClock(clk), WithConfigurator(cfg), WithJournalSet(openTestJournal(t, dir)))
	if _, err := eng1.EnactSource(strategy, holdStrategy); err != nil {
		t.Fatalf("EnactSource: %v", err)
	}
	eventually(t, "canary entered", func() bool {
		r, _ := eng1.Run("hold-run")
		return r.Status().Current == "canary"
	})
	gen, err := eng1.Pause("hold-run")
	if err != nil || gen != 1 {
		t.Fatalf("Pause = %d, %v", gen, err)
	}
	eng1.Suspend()

	// First restart holds the pause; a second restart (the engine dying
	// again while the run is still held) must hold it too — the re-entry
	// window may journal state_entered, but the pause must stick.
	engMid := New(WithClock(clk), WithConfigurator(cfg), WithJournalSet(openTestJournal(t, dir)))
	repMid, err := engMid.Recover(dsl.Compile)
	if err != nil || len(repMid.Resumed) != 1 {
		t.Fatalf("mid Recover: %v, resumed %d", err, len(repMid.Resumed))
	}
	waitReentries(t, engMid, "hold-run", 2)
	engMid.Suspend()

	eng2 := New(WithClock(clk), WithConfigurator(cfg), WithJournalSet(openTestJournal(t, dir)))
	defer eng2.Shutdown()
	report, err := eng2.Recover(dsl.Compile)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(report.Resumed) != 1 {
		t.Fatalf("resumed %d runs, want 1 (skipped: %v)", len(report.Resumed), report.Skipped)
	}
	r := report.Resumed[0]
	st := r.Status()
	if st.State != RunPaused || st.PauseGen != 1 || !st.Recovered {
		t.Fatalf("recovered status = %+v, want paused at generation 1 after two restarts", st)
	}

	// Operator controls only come alive once the loop holds the pause.
	eventually(t, "stale resume rejected", func() bool {
		return errors.Is(eng2.Resume("hold-run", 7), ErrStaleResume)
	})
	if err := eng2.Resume("hold-run", 1); err != nil {
		t.Fatalf("Resume with restored generation: %v", err)
	}
	eventually(t, "running after resume", func() bool {
		return r.Status().State == RunRunning
	})
	if err := eng2.Promote("hold-run", ""); err != nil {
		t.Fatalf("Promote: %v (status %+v)", err, r.Status())
	}
	eventually(t, "run completed", r.Done)
	if st := r.Status(); st.State != RunCompleted {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
}

func TestRecoverySkipsRunsWithoutSource(t *testing.T) {
	dir := t.TempDir()
	eng1 := New(WithJournalSet(openTestJournal(t, dir)))
	s := canaryStrategy(core.ConstEvaluator(true), 50*time.Millisecond, 1000)
	if _, err := eng1.Enact(s); err != nil { // programmatic: no DSL source
		t.Fatalf("Enact: %v", err)
	}
	eng1.Suspend()

	eng2 := New(WithJournalSet(openTestJournal(t, dir)))
	defer eng2.Shutdown()
	report, err := eng2.Recover(dsl.Compile)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(report.Resumed) != 0 {
		t.Fatalf("resumed a sourceless run: %+v", report.Resumed)
	}
	reason, ok := report.Skipped[s.Name]
	if !ok || !strings.Contains(reason, "source") {
		t.Fatalf("skipped = %v, want %s with a source-related reason", report.Skipped, s.Name)
	}

	// A skipped orphan has no registered run but must still be removable —
	// otherwise it haunts every future snapshot and boot warning.
	if err := eng2.Remove(s.Name); err != nil {
		t.Fatalf("Remove of skipped orphan: %v", err)
	}
	eng2.Suspend()
	eng3 := New(WithJournalSet(openTestJournal(t, dir)))
	defer eng3.Shutdown()
	report3, err := eng3.Recover(dsl.Compile)
	if err != nil {
		t.Fatalf("Recover after orphan removal: %v", err)
	}
	if len(report3.Skipped) != 0 || report3.Finished != 0 {
		t.Fatalf("orphan still present after removal: %+v", report3)
	}
}

// TestRecoveryAfterCompaction drives enough pause/resume churn through a
// tiny compaction threshold that recovery must come from a snapshot plus a
// record tail — and still restore the exact pause generation.
func TestRecoveryAfterCompaction(t *testing.T) {
	strategy, err := dsl.Compile(holdStrategy)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	dir := t.TempDir()
	clk := clock.NewManual(time.Date(2026, 7, 30, 9, 0, 0, 0, time.UTC))
	js, err := OpenJournal(dir, journal.Options{FlushInterval: -1, CompactBytes: 2048})
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	eng1 := New(WithClock(clk), WithJournalSet(js))
	if _, err := eng1.EnactSource(strategy, holdStrategy); err != nil {
		t.Fatalf("EnactSource: %v", err)
	}
	r1, _ := eng1.Run("hold-run")
	eventually(t, "canary entered", func() bool { return r1.Status().Current == "canary" })

	const cycles = 40
	for i := 0; i < cycles; i++ {
		if _, err := eng1.Pause("hold-run"); err != nil {
			t.Fatalf("Pause %d: %v", i, err)
		}
		if err := eng1.Resume("hold-run", 0); err != nil {
			t.Fatalf("Resume %d: %v", i, err)
		}
	}
	if _, err := eng1.Pause("hold-run"); err != nil {
		t.Fatalf("final Pause: %v", err)
	}
	eng1.Suspend()

	eng2 := New(WithClock(clk), WithJournalSet(openTestJournal(t, dir)))
	defer eng2.Shutdown()
	report, err := eng2.Recover(dsl.Compile)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(report.Resumed) != 1 {
		t.Fatalf("resumed %d, want 1 (skipped %v)", len(report.Resumed), report.Skipped)
	}
	st := report.Resumed[0].Status()
	if st.State != RunPaused || st.PauseGen != cycles+1 {
		t.Fatalf("recovered status = %s gen %d, want paused gen %d",
			st.State, st.PauseGen, cycles+1)
	}
}

// waitReentries blocks until the run's history shows n state_entered
// events (the loop has actually (re-)entered its state).
func waitReentries(t *testing.T, eng *Engine, name string, n int) {
	t.Helper()
	eventually(t, fmt.Sprintf("%d state entries", n), func() bool {
		count := 0
		for _, ev := range eng.RunEvents(name, 0) {
			if ev.Type == EventStateEntered {
				count++
			}
		}
		return count >= n
	})
}

// TestElapsedSurvivesSecondRestart: elapsed-in-state must accumulate
// across *multiple* restarts (journal heartbeats advance the crash-time
// estimate even in phases without checks), never reset by the recovery
// re-entry itself.
func TestElapsedSurvivesSecondRestart(t *testing.T) {
	strategy, err := dsl.Compile(holdStrategy)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	dir := t.TempDir()
	clk := clock.NewManual(time.Date(2026, 7, 30, 9, 0, 0, 0, time.UTC))

	eng1 := New(WithClock(clk), WithJournalSet(openTestJournal(t, dir)))
	if _, err := eng1.EnactSource(strategy, holdStrategy); err != nil {
		t.Fatalf("EnactSource: %v", err)
	}
	r1, _ := eng1.Run("hold-run")
	eventually(t, "canary entered", func() bool { return r1.Status().Current == "canary" })

	// waitJournalClock blocks until a heartbeat (or event) has advanced
	// the journal's crash-time estimate to the current simulated instant.
	waitJournalClock := func(eng *Engine) {
		now := clk.Now()
		eventually(t, "journal clock advanced", func() bool {
			eng.pubMu.Lock()
			defer eng.pubMu.Unlock()
			return !eng.mirror.LastTime.Before(now)
		})
	}

	// Compact right away: the quiet phase that follows produces only
	// boundary-seq heartbeats, which recovery must still honor (the
	// regression was replay dropping them behind the snapshot seq).
	eng1.compact()

	// Ten simulated minutes pass in the checkless 30m phase; heartbeat
	// records are all that advances the journal's clock.
	clk.Advance(10 * time.Minute)
	waitJournalClock(eng1)
	eng1.Suspend()

	// One hour of engine downtime: it must count neither against the
	// phase nor toward the run's active wall time.
	clk.Advance(time.Hour)

	eng2 := New(WithClock(clk), WithJournalSet(openTestJournal(t, dir)))
	rep2, err := eng2.Recover(dsl.Compile)
	if err != nil || len(rep2.Resumed) != 1 {
		t.Fatalf("first Recover: %v, resumed %d (skipped %v)", err, len(rep2.Resumed), rep2.Skipped)
	}
	r2 := rep2.Resumed[0]
	// Wait for the loop to actually re-enter the state (second
	// state_entered) before advancing time: elapsed only accrues while the
	// run is live.
	waitReentries(t, eng2, "hold-run", 2)
	if got := clk.Now().Sub(r2.Status().EnteredAt); got < 9*time.Minute {
		t.Fatalf("first recovered elapsed = %v, want ≈10m", got)
	}

	// Five more minutes, then a second crash — with more downtime behind
	// it: cumulative elapsed must be ≈ 15m, not reset, not inflated.
	clk.Advance(5 * time.Minute)
	waitJournalClock(eng2)
	eng2.Suspend()
	clk.Advance(2 * time.Hour)

	eng3 := New(WithClock(clk), WithJournalSet(openTestJournal(t, dir)))
	defer eng3.Shutdown()
	rep3, err := eng3.Recover(dsl.Compile)
	if err != nil || len(rep3.Resumed) != 1 {
		t.Fatalf("second Recover: %v, resumed %d (skipped %v)", err, len(rep3.Resumed), rep3.Skipped)
	}
	r3 := rep3.Resumed[0]
	waitReentries(t, eng3, "hold-run", 3)
	elapsed := clk.Now().Sub(r3.Status().EnteredAt)
	if elapsed < 13*time.Minute || elapsed > 16*time.Minute {
		t.Fatalf("cumulative elapsed = %v, want ≈15m", elapsed)
	}

	// The remaining ~15m finish the phase; a reset would need 30m more.
	finishDeadline := time.Now().Add(10 * time.Second)
	for !r3.Done() && time.Now().Before(finishDeadline) {
		clk.Advance(30 * time.Second)
		time.Sleep(2 * time.Millisecond)
	}
	if !r3.Done() {
		t.Fatalf("run did not finish within the remaining phase time; status %+v", r3.Status())
	}
	st := r3.Status()
	if st.State != RunCompleted {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	// Active wall time ≈ the 30m the run actually executed; the three
	// hours of engine downtime must not count.
	if actual := time.Duration(st.ActualNanos); actual < 29*time.Minute || actual > 45*time.Minute {
		t.Errorf("ActualNanos = %v, want ≈30m (downtime excluded)", actual)
	}
}

// TestReEnactAfterSkippedRecoveryStartsFresh: a name whose journaled run
// could not be resumed (no source) must start a clean history when it is
// re-enacted — not merge into the stale mirror.
func TestReEnactAfterSkippedRecoveryStartsFresh(t *testing.T) {
	dir := t.TempDir()
	eng1 := New(WithJournalSet(openTestJournal(t, dir)))
	old := canaryStrategy(core.ConstEvaluator(true), 50*time.Millisecond, 1000)
	if _, err := eng1.Enact(old); err != nil { // sourceless: unrecoverable
		t.Fatalf("Enact: %v", err)
	}
	eventually(t, "old run produced check events", func() bool {
		for _, ev := range eng1.RunEvents(old.Name, 0) {
			if ev.Type == EventCheckExecuted {
				return true
			}
		}
		return false
	})
	eng1.Suspend()

	eng2 := New(WithJournalSet(openTestJournal(t, dir)))
	defer eng2.Shutdown()
	if report, err := eng2.Recover(dsl.Compile); err != nil || len(report.Skipped) != 1 {
		t.Fatalf("Recover: %v, skipped %v", err, report.Skipped)
	}

	// Re-enact the same name from DSL source.
	src := strings.Replace(holdStrategy, "name: hold-run", "name: "+old.Name, 1)
	strategy, err := dsl.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	run, err := eng2.EnactSource(strategy, src)
	if err != nil {
		t.Fatalf("EnactSource over skipped name: %v", err)
	}
	eventually(t, "new run entered canary", func() bool {
		return run.Status().Current == "canary"
	})

	events := eng2.RunEvents(old.Name, 0)
	var scheduled, checks int
	for _, ev := range events {
		switch ev.Type {
		case EventScheduled:
			scheduled++
		case EventCheckExecuted:
			checks++
		}
	}
	if scheduled != 1 {
		t.Errorf("scheduled events in history = %d, want 1 (fresh enactment)", scheduled)
	}
	if checks != 0 {
		t.Errorf("stale check events leaked into the new enactment's history: %d", checks)
	}
	if p := run.Status().Path; len(p) != 0 {
		t.Errorf("fresh run inherited a path: %+v", p)
	}
}

// TestRemoveSurvivesRestart: a removed run must stay removed after a
// restart, even though its events are still journaled behind the removal.
func TestRemoveSurvivesRestart(t *testing.T) {
	strategy, err := dsl.Compile(holdStrategy)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	dir := t.TempDir()
	eng1 := New(WithJournalSet(openTestJournal(t, dir)))
	run, err := eng1.EnactSource(strategy, holdStrategy)
	if err != nil {
		t.Fatalf("EnactSource: %v", err)
	}
	eventually(t, "canary entered", func() bool { return run.Status().Current == "canary" })
	if err := eng1.Promote("hold-run", "end"); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	eventually(t, "completed", run.Done)
	if err := eng1.Remove("hold-run"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	eng1.Suspend()

	eng2 := New(WithJournalSet(openTestJournal(t, dir)))
	defer eng2.Shutdown()
	report, err := eng2.Recover(dsl.Compile)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(report.Resumed) != 0 || report.Finished != 0 {
		t.Fatalf("removed run resurrected: %d resumed / %d finished",
			len(report.Resumed), report.Finished)
	}
	if _, ok := eng2.Run("hold-run"); ok {
		t.Fatal("removed run listed after restart")
	}
	if evs := eng2.RunEvents("hold-run", 0); len(evs) != 0 {
		t.Fatalf("removed run's history survived: %d events", len(evs))
	}
}

// TestSimultaneousInterruptsAllObserved is the regression test for the
// interrupt channel: two exception checks fail in the same instant; neither
// runner may block or lose its triggered event, and the state must end.
func TestSimultaneousInterruptsAllObserved(t *testing.T) {
	eng := New()
	defer eng.Shutdown()

	var entered sync.WaitGroup
	entered.Add(2)
	release := make(chan struct{})
	go func() {
		entered.Wait()
		close(release)
	}()
	barrierFail := func() core.Evaluator {
		var once sync.Once
		return core.EvaluatorFunc(func(ctx context.Context) (bool, error) {
			once.Do(entered.Done)
			<-release
			return false, nil
		})
	}

	s := &core.Strategy{
		Name:     "double-interrupt",
		Services: twoVersionServices(),
		Automaton: core.Automaton{
			Start:  "watch",
			Finals: []string{"done", "emergency"},
			States: []core.State{
				{
					ID:       "watch",
					Duration: 30 * time.Second,
					Checks: []core.Check{
						{
							Name: "guard-a", Kind: core.ExceptionCheck,
							Eval: barrierFail(), Interval: time.Millisecond,
							Executions: 2, Fallback: "emergency",
						},
						{
							Name: "guard-b", Kind: core.ExceptionCheck,
							Eval: barrierFail(), Interval: time.Millisecond,
							Executions: 2, Fallback: "emergency",
						},
					},
					Thresholds:  []int{0},
					Transitions: []string{"emergency", "done"},
					Routing:     routeTo(95, 5),
				},
				{ID: "done", Routing: routeTo(0, 100)},
				{ID: "emergency", Routing: routeTo(100, 0)},
			},
		},
	}
	run, err := eng.Enact(s)
	if err != nil {
		t.Fatalf("Enact: %v", err)
	}
	st := waitDone(t, run)
	if st.State != RunCompleted {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	if len(st.Path) != 1 || st.Path[0].To != "emergency" {
		t.Fatalf("path = %+v, want watch→emergency", st.Path)
	}

	// Both conclusions must be observable even though only one won the
	// transition: the old capacity-1 channel silently dropped the second.
	eventually(t, "both exception events", func() bool {
		seen := map[string]bool{}
		for _, ev := range eng.RunEvents(s.Name, 0) {
			if ev.Type == EventExceptionTriggered {
				seen[ev.Check] = true
			}
		}
		return seen["guard-a"] && seen["guard-b"]
	})
}

// TestShutdownEnactRaceStress hammers schedule/finish/abort/remove against
// Shutdown under the race detector: no panic, no run escaping Shutdown, no
// journal record after close, and Enact failing cleanly afterwards. It runs
// on a write-through and a buffered set, so the terminal durability wait
// races Remove, Shutdown's drain and compaction on both.
func TestShutdownEnactRaceStress(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts journal.Options
	}{
		{"write-through", journal.Options{FlushInterval: -1}},
		{"buffered", journal.Options{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			js, err := OpenJournal(t.TempDir(), tc.opts)
			if err != nil {
				t.Fatalf("OpenJournal: %v", err)
			}
			eng := New(WithJournalSet(js))

			var wg sync.WaitGroup
			stop := make(chan struct{})
			for g := 0; g < 6; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for n := 0; ; n++ {
						select {
						case <-stop:
							return
						default:
						}
						s := canaryStrategy(core.ConstEvaluator(true), time.Millisecond, 2)
						s.Name = fmt.Sprintf("stress-%d-%d", g, n)
						r, err := eng.Enact(s)
						if err != nil {
							if errors.Is(err, ErrEngineClosed) {
								return
							}
							continue
						}
						switch n % 3 {
						case 0:
							_ = eng.Abort(s.Name)
						case 1:
							if r.Done() {
								_ = eng.Remove(s.Name)
							}
						}
					}
				}(g)
			}
			time.Sleep(25 * time.Millisecond)
			eng.Shutdown()
			close(stop)
			wg.Wait()

			for _, r := range eng.Runs() {
				if !r.Done() {
					t.Errorf("run %s still live after Shutdown", r.Status().Strategy)
				}
			}
			if _, err := eng.Enact(canaryStrategy(core.ConstEvaluator(true), time.Millisecond, 2)); !errors.Is(err, ErrEngineClosed) {
				t.Errorf("Enact after Shutdown = %v, want ErrEngineClosed", err)
			}
		})
	}
}

// TestRecoveredFinishedRunKeepsDelay: a run that finished before a
// restart reports the same active time and enactment delay after it, as
// the terminal event's reduction, not a live field the journal lacks.
func TestRecoveredFinishedRunKeepsDelay(t *testing.T) {
	strategy, err := dsl.Compile(holdStrategy)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	dir := t.TempDir()
	clk := clock.NewManual(time.Date(2026, 7, 30, 9, 0, 0, 0, time.UTC))

	eng1 := New(WithClock(clk), WithJournalSet(openTestJournal(t, dir)))
	r1, err := eng1.EnactSource(strategy, holdStrategy)
	if err != nil {
		t.Fatalf("EnactSource: %v", err)
	}
	eventually(t, "canary routing applied", func() bool {
		evs := eng1.RunEvents("hold-run", 0)
		return len(evs) > 0 && evs[len(evs)-1].Type == EventRoutingApplied
	})
	advance(clk, 31*time.Minute) // the 30m canary ends a minute late
	st1 := waitDone(t, r1)
	if st1.State != RunCompleted || st1.Delay() != time.Minute {
		t.Fatalf("first engine: %s with delay %v, want completed with 1m", st1.State, st1.Delay())
	}
	eng1.Suspend()

	eng2 := New(WithClock(clk), WithJournalSet(openTestJournal(t, dir)))
	defer eng2.Shutdown()
	report, err := eng2.Recover(dsl.Compile)
	if err != nil || report.Finished != 1 {
		t.Fatalf("Recover = %+v, %v; want one finished run", report, err)
	}
	r2, _ := eng2.Run("hold-run")
	st2 := r2.Status()
	if st2.ActualNanos != st1.ActualNanos || st2.Delay() != st1.Delay() {
		t.Fatalf("recovered: actual %v, delay %v; want %v, %v as before the restart",
			time.Duration(st2.ActualNanos), st2.Delay(), time.Duration(st1.ActualNanos), st1.Delay())
	}
}

// TestRecoveredStatusExcludesDowntimeFromTheStart: a recovered run is
// visible from the moment it is registered, before its loop re-enters the
// state. Its status must already show the preserved elapsed time, not the
// crash-time EnteredAt that would count the downtime as time in the phase:
// the recovered event is published before the run is registered.
func TestRecoveredStatusExcludesDowntimeFromTheStart(t *testing.T) {
	strategy, err := dsl.Compile(holdStrategy)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	dir := t.TempDir()
	clk := clock.NewManual(time.Date(2026, 7, 30, 9, 0, 0, 0, time.UTC))

	eng1 := New(WithClock(clk), WithJournalSet(openTestJournal(t, dir)))
	if _, err := eng1.EnactSource(strategy, holdStrategy); err != nil {
		t.Fatalf("EnactSource: %v", err)
	}
	r1, _ := eng1.Run("hold-run")
	eventually(t, "canary entered", func() bool { return r1.Status().Current == "canary" })
	clk.Advance(10 * time.Minute)
	now := clk.Now()
	eventually(t, "journal clock advanced", func() bool {
		eng1.pubMu.Lock()
		defer eng1.pubMu.Unlock()
		return !eng1.mirror.LastTime.Before(now)
	})
	eng1.Suspend()
	clk.Advance(time.Hour)

	eng2 := New(WithClock(clk), WithJournalSet(openTestJournal(t, dir)))
	defer eng2.Shutdown()
	part, err := eng2.replayPartition("hold-run", dsl.Compile, eng2.fenceFor("hold-run"))
	if err != nil || part == nil {
		t.Fatalf("replay: %v (partition %v)", err, part)
	}
	rr, err := eng2.resumePartition(part)
	if err != nil || !rr.Resumed {
		t.Fatalf("resume: %v (%+v)", err, rr)
	}
	st := rr.Run.Status()
	if !st.Recovered {
		t.Fatalf("status as the run is registered = %+v, want recovered", st)
	}
	if elapsed := clk.Now().Sub(st.EnteredAt); elapsed != 10*time.Minute {
		t.Fatalf("elapsed in canary as the run is registered = %v, want 10m (downtime excluded)", elapsed)
	}
	waitReentries(t, eng2, "hold-run", 2)
	if elapsed := clk.Now().Sub(rr.Run.Status().EnteredAt); elapsed != 10*time.Minute {
		t.Fatalf("elapsed in canary after the re-entry = %v, want 10m", elapsed)
	}
}
