package search

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestSweepBudget: at most min(n, budget) calls are ever in flight, each is
// handed budget/min(n, budget) workers, and the values come back in index
// order.
func TestSweepBudget(t *testing.T) {
	for _, tc := range []struct{ n, budget, concurrent, workers int }{
		{7, 3, 3, 1},
		{2, 8, 2, 4},
		{1, 5, 1, 5},
		{3, 7, 3, 2},
		{5, 1, 1, 1},
		{0, 4, 1, 4},
	} {
		baseline := runtime.NumGoroutine()
		var inFlight, peak atomic.Int64
		out, err := Sweep(context.Background(), tc.n, tc.budget, Observer{}, func(i, workers int, _ *Progress) (int, error) {
			now := inFlight.Add(1)
			defer inFlight.Add(-1)
			for {
				p := peak.Load()
				if now <= p || peak.CompareAndSwap(p, now) {
					break
				}
			}
			if workers != tc.workers {
				t.Errorf("n=%d budget=%d: call %d got %d workers, want %d", tc.n, tc.budget, i, workers, tc.workers)
			}
			time.Sleep(time.Millisecond)
			return 10 * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := peak.Load(); got > int64(tc.concurrent) {
			t.Errorf("n=%d budget=%d: %d calls in flight, bound %d", tc.n, tc.budget, got, tc.concurrent)
		}
		if len(out) != tc.n {
			t.Fatalf("n=%d: %d values", tc.n, len(out))
		}
		for i, v := range out {
			if v != 10*i {
				t.Errorf("n=%d: value %d = %d, want %d", tc.n, i, v, 10*i)
			}
		}
		waitForGoroutines(t, baseline)
	}
}

// TestSweepFirstErrorWins: with one call in flight at a time, the error of
// the call that ran first is returned and the values are dropped.
func TestSweepFirstErrorWins(t *testing.T) {
	first, later := errors.New("first"), errors.New("later")
	var order atomic.Int64
	out, err := Sweep(context.Background(), 6, 1, Observer{}, func(i, workers int, _ *Progress) (int, error) {
		if order.Add(1) == 1 {
			return 0, first
		}
		return 0, later
	})
	if !errors.Is(err, first) {
		t.Fatalf("err = %v, want the first call's error", err)
	}
	if out != nil {
		t.Fatalf("failed sweep returned values %v", out)
	}
}

// TestSweepCancelled: a sweep cancelled mid-way returns ctx.Err() with the
// values of the calls that completed, and calls still waiting for a slot
// stop waiting.
func TestSweepCancelled(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int64
	out, err := Sweep(ctx, 64, 1, Observer{}, func(i, workers int, _ *Progress) (int, error) {
		if ran.Add(1) == 1 {
			cancel()
		}
		return i + 1, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	kept := 0
	for i, v := range out {
		if v != 0 && v != i+1 {
			t.Fatalf("value %d = %d", i, v)
		}
		if v != 0 {
			kept++
		}
	}
	if kept == 0 || int64(kept) != ran.Load() {
		t.Fatalf("kept %d values of %d completed calls", kept, ran.Load())
	}
	if kept == len(out) {
		t.Fatal("every call ran despite cancellation")
	}
	waitForGoroutines(t, baseline)
}
