package inference

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/perf"
	"calculon/internal/system"
	"calculon/internal/units"
)

// estimatorPoint is one randomized draw of the Estimator ≡ Estimate
// property: a (model, base system) pair, a processor count, a strategy and
// a workload.
type estimatorPoint struct {
	mi, si int
	procs  int
	st     execution.Strategy
	w      Workload
}

var (
	propModels  = []string{"gpt3-13B", "gpt3-6.7B", "gpt2-1.5B", "llama-65B"}
	propSystems = []system.System{
		system.A100(8),
		system.A100(8).WithMem1Capacity(20 * units.GiB),
		system.A100(8).WithMem2(system.DDR5(256 * units.GiB)),
		system.A100(8).WithMem2(system.DDR5(2 * units.GiB)),
	}
)

// drawPoint draws widely enough to reach every outcome: feasible points,
// capacity and offload-tier infeasibility, strategies that do not divide
// the model, too few processors, and invalid workloads.
func drawPoint(rng *rand.Rand) estimatorPoint {
	pow := func(n int) int { return 1 << rng.Intn(n) }
	p := estimatorPoint{
		mi: rng.Intn(len(propModels)),
		si: rng.Intn(len(propSystems)),
		st: execution.Strategy{
			TP: pow(5), PP: pow(4), DP: 1 + rng.Intn(2),
			Microbatch: pow(2), Interleave: 1, OneFOneB: true,
			TPRSAG:      rng.Intn(2) == 0,
			FusedLayers: rng.Intn(2) == 0,
		},
		w: Workload{
			PromptLen: 32 * pow(8),
			GenLen:    16 * pow(6),
			Batch:     pow(6),
			KVOffload: rng.Intn(3) == 0,
		},
	}
	if rng.Intn(3) == 0 {
		p.st.PP = 3 // a depth that does not divide every preset's block count
	}
	p.procs = p.st.TP * p.st.PP * p.st.DP
	if rng.Intn(4) == 0 {
		p.procs = pow(6)
	}
	if rng.Intn(20) == 0 {
		p.w.Batch = 0
	}
	return p
}

// sameResult compares every Result field bit for bit, floats through
// math.Float64bits, so a memo that changes a rounding cannot hide.
func sameResult(a, b Result) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Float64 {
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return false
			}
		} else if fa.Interface() != fb.Interface() {
			return false
		}
	}
	return true
}

// TestEstimatorMatchesEstimate is the exactness contract of the Estimator:
// long-lived shared estimators, hit concurrently from several goroutines so
// the race detector covers the memos, return exactly what a fresh
// package-level Estimate does — every field bit-equal, and the same error
// class and message on failure.
func TestEstimatorMatchesEstimate(t *testing.T) {
	models := make([]model.LLM, len(propModels))
	for i, name := range propModels {
		models[i] = model.MustPreset(name)
	}
	ests := make([][]*Estimator, len(models))
	for i := range ests {
		ests[i] = make([]*Estimator, len(propSystems))
		for j := range propSystems {
			ests[i][j] = NewEstimator(models[i], propSystems[j])
		}
	}

	const goroutines, draws = 4, 300
	var feasible, infeasible, invalid [goroutines]int
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			// Every goroutine replays the same stream, so concurrent first
			// uses of one memo key really race.
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < draws; i++ {
				p := drawPoint(rng)
				sys := propSystems[p.si].WithProcs(p.procs)
				want, wantErr := Estimate(models[p.mi], sys, p.st, p.w)
				got, gotErr := ests[p.mi][p.si].Estimate(p.procs, p.st, p.w)
				switch {
				case (gotErr == nil) != (wantErr == nil):
					t.Errorf("draw %d %+v: estimator error %v, fresh error %v", i, p, gotErr, wantErr)
				case wantErr != nil:
					if errors.Is(gotErr, perf.ErrInfeasible) != errors.Is(wantErr, perf.ErrInfeasible) ||
						gotErr.Error() != wantErr.Error() {
						t.Errorf("draw %d %+v: estimator error %q, fresh error %q", i, p, gotErr, wantErr)
					}
					if errors.Is(wantErr, perf.ErrInfeasible) {
						infeasible[gi]++
					} else {
						invalid[gi]++
					}
				case !sameResult(got, want):
					t.Errorf("draw %d %+v: estimator %+v, fresh %+v", i, p, got, want)
				default:
					feasible[gi]++
				}
			}
		}(gi)
	}
	wg.Wait()
	t.Logf("%d feasible, %d infeasible, %d invalid of %d draws", feasible[0], infeasible[0], invalid[0], draws)
	// Guard against a generator drift that would make the property vacuous
	// on one side.
	if feasible[0] < draws/10 || infeasible[0] < draws/10 || invalid[0] == 0 {
		t.Errorf("unbalanced draws: %d feasible, %d infeasible, %d invalid of %d",
			feasible[0], infeasible[0], invalid[0], draws)
	}
}
