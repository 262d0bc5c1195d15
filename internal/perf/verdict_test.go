package perf

import (
	"errors"
	"testing"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/system"
	"calculon/internal/units"
)

// verdictSpace is a tight system with a small offload tier: strategies fail
// on either memory tier, on processor count, or in the pre-screen.
func verdictSpace() (model.LLM, system.System) {
	return model.MustPreset("gpt3-13B").WithBatch(64),
		system.A100(64).WithMem2(system.DDR5(1 * units.GiB))
}

var (
	mem1Overflow = execution.Strategy{TP: 1, PP: 1, DP: 64, Microbatch: 1}
	mem2Overflow = execution.Strategy{TP: 8, PP: 8, DP: 1, Microbatch: 1, WeightOffload: true, OptimOffload: true}
	tooManyProcs = execution.Strategy{TP: 8, PP: 16, DP: 1, Microbatch: 1}
)

// TestInfeasibleVerdictText pins the text of every infeasible verdict, on
// the scratch and the delta path, to the messages the formatted verdicts
// produced before they became typed errors; each still matches
// ErrInfeasible.
func TestInfeasibleVerdictText(t *testing.T) {
	m, sys := verdictSpace()
	cases := []struct {
		screen bool
		st     execution.Strategy
		want   string
	}{
		{false, mem1Overflow, "infeasible configuration: mem1 needs 232.7GiB of 80GiB"},
		{false, mem2Overflow, "infeasible configuration: mem2 needs 1.17GiB of 1GiB"},
		{false, tooManyProcs, "infeasible configuration: strategy needs 128 procs, system has 64"},
		{true, mem1Overflow, "infeasible configuration: mem1 needs at least 187.54GiB of 80GiB for weights+gradients+optimizer"},
		{true, mem2Overflow, "infeasible configuration: mem2 needs at least 1.17GiB of 1GiB for offloaded weights+gradients+optimizer"},
		{true, tooManyProcs, "infeasible configuration: strategy needs 128 procs, system has 64"},
	}
	for _, tc := range cases {
		r, err := NewRunner(m, sys)
		if err != nil {
			t.Fatal(err)
		}
		if !tc.screen {
			r.DisablePreScreen()
		}
		_, errRun := r.Run(tc.st)
		_, _, errDelta := r.RunDelta(RunInfo{}, tc.st)
		for path, err := range map[string]error{"scratch": errRun, "delta": errDelta} {
			if err == nil || err.Error() != tc.want {
				t.Errorf("screen=%v %v %s: got %v, want %q", tc.screen, tc.st, path, err, tc.want)
			}
			if !errors.Is(err, ErrInfeasible) {
				t.Errorf("screen=%v %v %s: verdict does not match ErrInfeasible", tc.screen, tc.st, path)
			}
		}
	}
}

// TestRunDeltaAllocs pins the allocation cost of the delta path's verdicts:
// nothing for a warm feasible evaluation, at most the error itself for a
// memory overflow, and nothing for a pre-screen verdict the chain reuses.
func TestRunDeltaAllocs(t *testing.T) {
	m, sys := verdictSpace()
	chainAllocs := func(r *Runner, sts ...execution.Strategy) float64 {
		var info RunInfo
		var res Result
		i := 0
		return testing.AllocsPerRun(100, func() {
			info, _ = r.RunDeltaInto(info, sts[i%len(sts)], &res)
			i++
		})
	}

	r, err := NewRunner(m, sys)
	if err != nil {
		t.Fatal(err)
	}
	a := execution.Strategy{TP: 8, PP: 2, DP: 4, Microbatch: 1, Recompute: execution.RecomputeFull}
	b := a
	b.TPRSAG = true
	for _, st := range []execution.Strategy{a, b} {
		if _, err := r.Run(st); err != nil {
			t.Fatalf("%v should be feasible: %v", st, err)
		}
	}
	if got := chainAllocs(r, a, b); got != 0 {
		t.Errorf("warm feasible RunDeltaInto: %v allocs, want 0", got)
	}

	// The pre-screen verdict depends on neither toggle, so the chain
	// reuses the wrapped verdict it computed for the first strategy.
	c := mem1Overflow
	c.Recompute = execution.RecomputeFull
	if got := chainAllocs(r, mem1Overflow, c); got != 0 {
		t.Errorf("reused pre-screen verdict: %v allocs, want 0", got)
	}

	unscreened, err := NewRunner(m, sys)
	if err != nil {
		t.Fatal(err)
	}
	unscreened.DisablePreScreen()
	for _, st := range []execution.Strategy{mem1Overflow, mem2Overflow} {
		if got := chainAllocs(unscreened, st); got > 1 {
			t.Errorf("%v memory-overflow verdict: %v allocs, want at most 1", st, got)
		}
	}
}
