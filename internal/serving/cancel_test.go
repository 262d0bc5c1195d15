package serving

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"calculon/internal/model"
	"calculon/internal/search"
	"calculon/internal/system"
)

// bigSpec is a serving search of a few thousand engines over ~150 (tp, pp)
// groups with a 16-bucket mix (tens of milliseconds on one worker), so a
// cancel issued on the first counter flush lands with most groups unclaimed.
func bigSpec() Spec {
	var mix []Bucket
	for i := 0; i < 16; i++ {
		mix = append(mix, Bucket{PromptLen: 256 << (i % 5), GenLen: 64 << (i % 4), Weight: float64(i + 1)})
	}
	return Spec{
		Model:    model.MustPreset("gpt3-175B"),
		System:   system.A100(4096),
		Workload: Workload{Mix: mix, SLO: SLO{TTFT: 30, TPOT: 1}},
		Space:    Space{Procs: 4096, MaxBatch: 4096, KVOffload: true, Disaggregate: true},
	}
}

// waitForGoroutines fails the test if the goroutine count does not settle
// back to the baseline — the leak check behind the cancellation contract.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d running, baseline %d\n%s",
		runtime.NumGoroutine(), baseline, buf[:n])
}

// cancelOnFirstFlush cancels as soon as prog records any work.
func cancelOnFirstFlush(prog *search.Progress, cancel context.CancelFunc) {
	go func() {
		for prog.Snapshot().Evaluated == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
	}()
}

func TestSearchPreCancelled(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var prog search.Progress
	_, err := Search(ctx, bigSpec(), Options{Workers: 4, Progress: &prog})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// At most the groups already handed out at cancellation get priced.
	if got := prog.Snapshot().Feasible; got != 0 {
		t.Fatalf("pre-cancelled search composed %d feasible deployments", got)
	}
	waitForGoroutines(t, baseline)
}

func TestSearchCancelledMidSearch(t *testing.T) {
	baseline := runtime.NumGoroutine()
	var prog search.Progress
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelOnFirstFlush(&prog, cancel)
	start := time.Now()
	_, err := Search(ctx, bigSpec(), Options{Workers: 1, Progress: &prog})
	took := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	snap := prog.Snapshot()
	if snap.Evaluated == 0 || snap.Evaluated >= snap.Total {
		t.Fatalf("cancel after the first flush left %d of %d engines priced", snap.Evaluated, snap.Total)
	}
	if snap.Feasible != 0 {
		t.Fatalf("cancelled search composed %d feasible deployments", snap.Feasible)
	}
	if took > 2*time.Second {
		t.Fatalf("cancelled search took %v", took)
	}
	waitForGoroutines(t, baseline)
}

func TestSweepPreCancelled(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var prog search.Progress
	out, err := Sweep(ctx, basicSpec(), []int{4, 8, 16}, Options{Workers: 2, Progress: &prog})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, p := range out {
		if p.Result.Feasible != 0 {
			t.Errorf("point %d composed %d deployments after a pre-cancel", i, p.Result.Feasible)
		}
	}
	waitForGoroutines(t, baseline)
}

func TestSweepCancelledMidSweep(t *testing.T) {
	baseline := runtime.NumGoroutine()
	sizes := search.Sizes(64, 4096)
	var prog search.Progress
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelOnFirstFlush(&prog, cancel)
	// One worker runs the sizes one at a time, so the cancel lands with
	// most of them never started.
	out, err := Sweep(ctx, bigSpec(), sizes, Options{Workers: 1, Progress: &prog})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(out) != len(sizes) {
		t.Fatalf("cancelled sweep returned %d points for %d sizes", len(out), len(sizes))
	}
	done := 0
	for _, p := range out {
		if p.Procs != 0 {
			done++
		}
	}
	if done == len(sizes) {
		t.Fatal("sweep ran every size despite cancellation")
	}
	waitForGoroutines(t, baseline)
}

// finalSnapshots records every OnProgress callback.
type finalSnapshots struct {
	mu    sync.Mutex
	snaps []search.ProgressSnapshot
}

func (f *finalSnapshots) record(s search.ProgressSnapshot) {
	f.mu.Lock()
	f.snaps = append(f.snaps, s)
	f.mu.Unlock()
}

func (f *finalSnapshots) get() []search.ProgressSnapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]search.ProgressSnapshot(nil), f.snaps...)
}

// checkFinal asserts the callbacks a finished run delivered: with an hour's
// interval the ticker never fires, so only the final callback arrives; with
// a millisecond one the last callback carries the end counters. Either way
// nothing arrives after the run returned.
func checkFinal(t *testing.T, interval time.Duration, f *finalSnapshots, baseline int, evaluated, feasible, prescreened int) {
	t.Helper()
	snaps := f.get()
	if len(snaps) == 0 {
		t.Fatal("OnProgress never fired")
	}
	if interval == time.Hour && len(snaps) != 1 {
		t.Fatalf("%d callbacks with the ticker idle, want exactly the final one", len(snaps))
	}
	last := snaps[len(snaps)-1]
	if last.Evaluated != int64(evaluated) || last.Feasible != int64(feasible) || last.PreScreened != int64(prescreened) {
		t.Fatalf("final snapshot (%d, %d, %d) disagrees with the result (%d, %d, %d)",
			last.Evaluated, last.Feasible, last.PreScreened, evaluated, feasible, prescreened)
	}
	waitForGoroutines(t, baseline)
	if n := len(f.get()); n != len(snaps) {
		t.Fatalf("%d callbacks arrived after return", n-len(snaps))
	}
}

func TestSearchOnProgressFinalSnapshot(t *testing.T) {
	for _, interval := range []time.Duration{time.Hour, time.Millisecond} {
		baseline := runtime.NumGoroutine()
		var f finalSnapshots
		res, err := Search(context.Background(), bigSpec(), Options{
			Workers: 2, OnProgress: f.record, ProgressInterval: interval,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkFinal(t, interval, &f, baseline, res.Evaluated, res.Feasible, res.PreScreened)
	}
}

func TestSweepOnProgressFinalSnapshot(t *testing.T) {
	for _, interval := range []time.Duration{time.Hour, time.Millisecond} {
		baseline := runtime.NumGoroutine()
		var f finalSnapshots
		out, err := Sweep(context.Background(), basicSpec(), []int{4, 8, 16}, Options{
			Workers: 2, OnProgress: f.record, ProgressInterval: interval,
		})
		if err != nil {
			t.Fatal(err)
		}
		var evaluated, feasible, prescreened int
		for _, p := range out {
			evaluated += p.Result.Evaluated
			feasible += p.Result.Feasible
			prescreened += p.Result.PreScreened
		}
		checkFinal(t, interval, &f, baseline, evaluated, feasible, prescreened)
	}
}
