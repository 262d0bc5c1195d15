package search

import (
	"context"
	"testing"
	"testing/quick"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/perf"
	"calculon/internal/system"
	"calculon/internal/units"
)

func resultTM(t, mem float64) perf.Result {
	var r perf.Result
	r.BatchTime = units.Seconds(t)
	r.Mem1.Weights = units.Bytes(mem)
	return r
}

// paretoFront runs the search's own front compaction over results, with
// input order as the enumeration sequence.
func paretoFront(results []perf.Result) []perf.Result {
	cands := make([]scored, len(results))
	for i, r := range results {
		cands[i] = scored{i, r}
	}
	var front []perf.Result
	for _, s := range compactParetoScored(cands) {
		front = append(front, s.res)
	}
	return front
}

func TestParetoFrontBasics(t *testing.T) {
	in := []perf.Result{
		resultTM(10, 100), // dominated by (10,50)? no—same time more mem: dominated
		resultTM(10, 50),
		resultTM(20, 40),
		resultTM(30, 45), // dominated by (20,40)
		resultTM(40, 10),
	}
	front := paretoFront(in)
	if len(front) != 3 {
		t.Fatalf("front size %d, want 3: %+v", len(front), front)
	}
	if front[0].BatchTime != 10 || front[0].Mem1.Total() != 50 {
		t.Errorf("front[0] = %v/%v", front[0].BatchTime, front[0].Mem1.Total())
	}
	if front[2].BatchTime != 40 || front[2].Mem1.Total() != 10 {
		t.Errorf("front[2] = %v/%v", front[2].BatchTime, front[2].Mem1.Total())
	}
	if paretoFront(nil) != nil {
		t.Error("empty input must give empty front")
	}
}

// TestParetoFrontProperty: no front member is dominated by any input point.
func TestParetoFrontProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		var in []perf.Result
		for i := 0; i+1 < len(raw); i += 2 {
			in = append(in, resultTM(float64(raw[i]%100)+1, float64(raw[i+1]%100)+1))
		}
		front := paretoFront(in)
		if len(front) == 0 {
			return false
		}
		for _, fm := range front {
			for _, p := range in {
				if p.BatchTime < fm.BatchTime && p.Mem1.Total() < fm.Mem1.Total() {
					return false
				}
			}
		}
		// Front is sorted fastest-first with strictly decreasing memory.
		for i := 1; i < len(front); i++ {
			if front[i].BatchTime < front[i-1].BatchTime ||
				front[i].Mem1.Total() >= front[i-1].Mem1.Total() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPinBeneficialPreservesOptimum is the justification for the big-sweep
// speedup: pinning the monotone toggles must find the same best sample rate
// as the full enumeration.
func TestPinBeneficialPreservesOptimum(t *testing.T) {
	m := model.MustPreset("gpt3-13B").WithBatch(32)
	sys := system.A100(32)
	full, err := Execution(context.Background(), m, sys, Options{
		Enum: execution.EnumOptions{Procs: 32, Features: execution.FeatureAll, MaxInterleave: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := Execution(context.Background(), m, sys, Options{
		Enum: execution.EnumOptions{Procs: 32, Features: execution.FeatureAll, MaxInterleave: 2, PinBeneficial: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if pinned.Evaluated >= full.Evaluated {
		t.Fatalf("pinning must shrink the space: %d vs %d", pinned.Evaluated, full.Evaluated)
	}
	if pinned.Best.SampleRate < full.Best.SampleRate*(1-1e-9) {
		t.Errorf("pinned search lost the optimum: %.3f vs %.3f samples/s",
			pinned.Best.SampleRate, full.Best.SampleRate)
	}
}

// TestSearchParetoOption: the incremental front from the parallel search
// matches the invariants and is deterministic across worker counts.
func TestSearchParetoOption(t *testing.T) {
	m := model.MustPreset("gpt3-13B").WithBatch(32)
	sys := system.A100(32)
	run := func(workers int) Result {
		res, err := Execution(context.Background(), m, sys, Options{
			Enum:    execution.EnumOptions{Procs: 32, Features: execution.FeatureSeqPar, MaxInterleave: 2},
			Workers: workers,
			Pareto:  true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1 := run(1)
	r8 := run(8)
	if len(r1.Pareto) == 0 {
		t.Fatal("empty Pareto front")
	}
	if len(r1.Pareto) != len(r8.Pareto) {
		t.Fatalf("front size differs across workers: %d vs %d", len(r1.Pareto), len(r8.Pareto))
	}
	for i := range r1.Pareto {
		if r1.Pareto[i].Strategy != r8.Pareto[i].Strategy {
			t.Errorf("front[%d] differs across workers", i)
		}
	}
	// The fastest front member is the overall best; memory decreases along
	// the front while time increases.
	if r1.Pareto[0].Strategy != r1.Best.Strategy {
		t.Error("front[0] must be the fastest configuration")
	}
	for i := 1; i < len(r1.Pareto); i++ {
		if r1.Pareto[i].BatchTime < r1.Pareto[i-1].BatchTime ||
			r1.Pareto[i].Mem1.Total() >= r1.Pareto[i-1].Mem1.Total() {
			t.Fatalf("front not monotone at %d", i)
		}
	}
}
