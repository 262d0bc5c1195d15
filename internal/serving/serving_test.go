package serving

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"calculon/internal/inference"
	"calculon/internal/model"
	"calculon/internal/search"
	"calculon/internal/system"
	"calculon/internal/units"
)

// chatMix is a small two-bucket workload with generous SLOs: short
// interactive turns dominating, a long-document tail.
func chatMix() Workload {
	return Workload{
		Mix: []Bucket{
			{PromptLen: 512, GenLen: 128, Weight: 3},
			{PromptLen: 2048, GenLen: 256, Weight: 1},
		},
		SLO: SLO{TTFT: 30, TPOT: 1},
	}
}

func basicSpec() Spec {
	return Spec{
		Model:    model.MustPreset("gpt3-13B"),
		System:   system.A100(16),
		Workload: chatMix(),
		Space:    Space{Procs: 16, MaxBatch: 16},
	}
}

func TestServingSearchBasic(t *testing.T) {
	spec := basicSpec()
	res, err := Search(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated == 0 {
		t.Fatal("no engines evaluated")
	}
	if res.Feasible == 0 || len(res.Frontier) == 0 {
		t.Fatalf("expected feasible deployments under generous SLOs, got %d feasible, %d frontier",
			res.Feasible, len(res.Frontier))
	}
	if res.Best == nil || *res.Best != res.Frontier[0] {
		t.Fatal("Best must be the first frontier point")
	}
	slo := spec.Workload.SLO
	for i, d := range res.Frontier {
		if d.TTFT > slo.TTFT || d.TPOT > slo.TPOT {
			t.Errorf("frontier[%d] violates SLO: TTFT %v TPOT %v", i, d.TTFT, d.TPOT)
		}
		if d.Procs > spec.Space.Procs {
			t.Errorf("frontier[%d] exceeds the %d-proc budget with %d", i, spec.Space.Procs, d.Procs)
		}
		if d.Batch > spec.Space.MaxBatch || d.Replicas < 1 {
			t.Errorf("frontier[%d] outside the space: batch %d replicas %d", i, d.Batch, d.Replicas)
		}
		if d.CostPerMToken <= 0 || d.ClusterTokensPerSec <= 0 || d.UserTokensPerSec <= 0 {
			t.Errorf("frontier[%d] carries non-positive objectives: %+v", i, d)
		}
		if i > 0 && d.CostPerMToken < res.Frontier[i-1].CostPerMToken {
			t.Errorf("frontier not sorted by cost at %d", i)
		}
	}
	// No frontier point may weakly dominate another — compaction dedups
	// objective-equal points, so survivors are pairwise non-dominated.
	for i := range res.Frontier {
		for j := range res.Frontier {
			if i != j && deploymentDominates(&res.Frontier[i], &res.Frontier[j]) {
				t.Errorf("frontier[%d] dominates frontier[%d]", i, j)
			}
		}
	}
}

func TestImpossibleSLOFindsNothing(t *testing.T) {
	spec := basicSpec()
	spec.Workload.SLO = SLO{TTFT: 1e-9, TPOT: 1e-9}
	res, err := Search(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible != 0 || len(res.Frontier) != 0 || res.Best != nil {
		t.Fatalf("nothing can meet a nanosecond SLO, got %d feasible", res.Feasible)
	}
	if res.Evaluated == 0 {
		t.Fatal("engines must still be evaluated")
	}
}

// TestDisaggregationWinsTightTPOT forces the disaggregated mode to be the
// only way to meet the decode-latency objective: the TPOT bound is placed
// between the pure-decode step time and the colocated step time (which
// carries chunked-prefill interference), on a single-engine space. Every
// frontier point must then be a split deployment, demonstrating the
// prefill/decode pools end to end.
func TestDisaggregationWinsTightTPOT(t *testing.T) {
	spec := basicSpec()
	spec.Space = Space{Procs: 16, MaxBatch: 4, MaxTP: 1, MaxPP: 1, Disaggregate: true}

	// Probe the enumerated engines (tp=1, pp=1, batch 1/2/4) for the
	// tightest colocated TPOT and its pure-decode counterpart.
	pbar, gbar := spec.Workload.MeanPromptLen(), spec.Workload.MeanGenLen()
	sys := spec.System.WithProcs(1)
	bestColoc, bestDecode := units.Seconds(0), units.Seconds(0)
	for _, b := range []int{1, 2, 4} {
		est, err := inference.Estimate(spec.Model, sys, strategyFor(1, 1), inference.Workload{
			PromptLen: pbar, GenLen: gbar, Batch: b,
		})
		if err != nil {
			t.Fatal(err)
		}
		coloc := est.StepTime + est.PrefillTime/units.Seconds(gbar)
		if bestColoc == 0 || coloc < bestColoc {
			bestColoc, bestDecode = coloc, est.StepTime
		}
	}
	spec.Workload.SLO.TPOT = bestDecode + (bestColoc-bestDecode)/2

	res, err := Search(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frontier) == 0 {
		t.Fatal("the disaggregated mode should meet the tight TPOT")
	}
	for i, d := range res.Frontier {
		if !d.Disaggregated {
			t.Fatalf("frontier[%d] is colocated but cannot meet TPOT %v", i, spec.Workload.SLO.TPOT)
		}
		if d.PrefillReplicas < 1 {
			t.Errorf("frontier[%d]: split deployment without a prefill pool", i)
		}
		if d.KVTransferTime <= 0 {
			t.Errorf("frontier[%d]: split deployment without a KV shipment cost", i)
		}
	}
}

// TestDisaggregationOnFrontier checks the milder default claim: with
// generous SLOs the best per-user rate is always a pure-decode (split)
// deployment, so the frontier must carry at least one.
func TestDisaggregationOnFrontier(t *testing.T) {
	spec := basicSpec()
	spec.Space.Disaggregate = true
	res, err := Search(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range res.Frontier {
		if d.Disaggregated {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("expected a disaggregated deployment on the frontier")
	}
}

func TestKVOffloadEntersSpace(t *testing.T) {
	spec := basicSpec()
	spec.System = spec.System.WithMem2(system.DDR5(2 * units.TiB))
	spec.Space.KVOffload = true
	res, err := Search(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Search(context.Background(), basicSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != 2*base.Evaluated {
		t.Fatalf("KV offload should double the engine space: %d vs %d", res.Evaluated, base.Evaluated)
	}
}

func TestSweepMonotone(t *testing.T) {
	spec := basicSpec()
	sizes := []int{4, 8, 16}
	out, err := Sweep(context.Background(), spec, sizes, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(sizes) {
		t.Fatalf("got %d points for %d sizes", len(out), len(sizes))
	}
	prevFeasible, prevCluster := 0, 0.0
	for i, p := range out {
		if p.Procs != sizes[i] {
			t.Fatalf("point %d: procs %d, want %d", i, p.Procs, sizes[i])
		}
		// A larger budget strictly contains the smaller one's deployment
		// space, so feasibility and peak throughput cannot shrink.
		if p.Result.Feasible < prevFeasible {
			t.Errorf("feasible count shrank at %d procs: %d < %d", p.Procs, p.Result.Feasible, prevFeasible)
		}
		best := 0.0
		for _, d := range p.Result.Frontier {
			if d.ClusterTokensPerSec > best {
				best = d.ClusterTokensPerSec
			}
		}
		if best < prevCluster {
			t.Errorf("peak cluster throughput shrank at %d procs: %g < %g", p.Procs, best, prevCluster)
		}
		prevFeasible, prevCluster = p.Result.Feasible, best
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"empty mix", func(s *Spec) { s.Workload.Mix = nil }},
		{"zero weight", func(s *Spec) { s.Workload.Mix[0].Weight = 0 }},
		{"zero prompt", func(s *Spec) { s.Workload.Mix[0].PromptLen = 0 }},
		{"zero gen", func(s *Spec) { s.Workload.Mix[0].GenLen = 0 }},
		{"zero SLO", func(s *Spec) { s.Workload.SLO = SLO{} }},
		{"zero budget", func(s *Spec) { s.Space.Procs = 0 }},
		{"negative bound", func(s *Spec) { s.Space.MaxTP = -1 }},
		{"bad prefill system", func(s *Spec) { s.PrefillSystem = &system.System{} }},
	}
	for _, tc := range cases {
		spec := basicSpec()
		tc.mutate(&spec)
		if _, err := Search(context.Background(), spec, Options{}); err == nil {
			t.Errorf("%s: expected a validation error", tc.name)
		}
	}
}

func TestMeanWorkload(t *testing.T) {
	w := chatMix()
	// (3·512 + 1·2048)/4 = 896; (3·128 + 1·256)/4 = 160.
	if got := w.MeanPromptLen(); got != 896 {
		t.Errorf("mean prompt: got %d, want 896", got)
	}
	if got := w.MeanGenLen(); got != 160 {
		t.Errorf("mean gen: got %d, want 160", got)
	}
}

func TestFrontierCompaction(t *testing.T) {
	f := newFrontier()
	f.Push(Deployment{Seq: 1, UserTokensPerSec: 10, ClusterTokensPerSec: 100, CostPerMToken: 5})
	// Dominated on every axis.
	f.Push(Deployment{Seq: 2, UserTokensPerSec: 9, ClusterTokensPerSec: 90, CostPerMToken: 6})
	// Objective-equal duplicate of seq 1: deduplicated, lowest seq kept.
	f.Push(Deployment{Seq: 3, UserTokensPerSec: 10, ClusterTokensPerSec: 100, CostPerMToken: 5})
	// Trades user rate for cluster rate: survives.
	f.Push(Deployment{Seq: 4, UserTokensPerSec: 5, ClusterTokensPerSec: 200, CostPerMToken: 5})
	// Cheaper but worse everywhere else: survives.
	f.Push(Deployment{Seq: 5, UserTokensPerSec: 1, ClusterTokensPerSec: 10, CostPerMToken: 1})
	pts := f.Front()
	if len(pts) != 3 {
		t.Fatalf("got %d survivors, want 3: %+v", len(pts), pts)
	}
	if pts[0].Seq != 5 || pts[1].Seq != 1 || pts[2].Seq != 4 {
		t.Errorf("wrong survivors/order: %+v", pts)
	}
}

// TestFrontierMatchesBruteForce is the shared fold's property test on the
// serving instantiation: over random deployment streams with heavy ties on
// all three objectives, any arrival order and any merge points, the frontier equals an O(n²) reference seq for seq — a point
// survives when no other point weakly dominates it while being strictly
// better somewhere or equal everywhere with a lower seq.
func TestFrontierMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		levels := 1 + rng.Intn(8)
		level := func() float64 { return float64(1 + rng.Intn(levels)) }
		pts := make([]Deployment, rng.Intn(600))
		for i := range pts {
			pts[i] = Deployment{Seq: i, CostPerMToken: level(), UserTokensPerSec: level(), ClusterTokensPerSec: level()}
		}
		var want []Deployment
		for i := range pts {
			beaten := false
			for j := range pts {
				p, q := &pts[i], &pts[j]
				if j != i && deploymentDominates(q, p) && (!deploymentDominates(p, q) || q.Seq < p.Seq) {
					beaten = true
					break
				}
			}
			if !beaten {
				want = append(want, pts[i])
			}
		}
		slices.SortFunc(want, func(a, b Deployment) int { return deploymentBefore(&a, &b) })

		// Random arrival order over several folds, with fronts taken and
		// folds merged at random points, then everything merged into one.
		folds := make([]search.ParetoFold[Deployment], 1+rng.Intn(4))
		for i := range folds {
			folds[i] = newFrontier()
		}
		for _, i := range rng.Perm(len(pts)) {
			f := &folds[rng.Intn(len(folds))]
			f.Push(pts[i])
			switch rng.Intn(64) {
			case 0:
				f.Front()
			case 1:
				if o := &folds[rng.Intn(len(folds))]; o != f {
					mergeFold(f, o)
					*o = newFrontier()
				}
			}
		}
		for i := 1; i < len(folds); i++ {
			mergeFold(&folds[0], &folds[i])
		}
		got := folds[0].Front()
		if len(got) != len(want) {
			t.Fatalf("trial %d: frontier holds %d points, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].Seq != want[i].Seq {
				t.Fatalf("trial %d: frontier[%d] is seq %d, want %d", trial, i, got[i].Seq, want[i].Seq)
			}
		}
	}
}

// mergeFold folds every point of o into f.
func mergeFold(f, o *search.ParetoFold[Deployment]) {
	for _, d := range o.Front() {
		f.Push(d)
	}
}

func TestPrefillSystemPool(t *testing.T) {
	spec := basicSpec()
	spec.Space.Disaggregate = true
	// A prefill pool on a slower system must not change the decode-side
	// estimates, only the prefill pool sizing and TTFT.
	slow := system.A100(16)
	slow.Compute.MatrixPeak /= 4
	slow.Compute.VectorPeak /= 4
	spec.PrefillSystem = &slow
	res, err := Search(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := func() (Result, error) {
		s := basicSpec()
		s.Space.Disaggregate = true
		return Search(context.Background(), s, Options{})
	}()
	if err != nil {
		t.Fatal(err)
	}
	// With a 4x slower prefill pool, some split deployment must need more
	// prefill replicas for the same decode pool than the homogeneous run.
	maxSlow, maxFast := 0, 0
	for _, d := range res.Frontier {
		if d.Disaggregated && d.PrefillReplicas > maxSlow {
			maxSlow = d.PrefillReplicas
		}
	}
	for _, d := range fast.Frontier {
		if d.Disaggregated && d.PrefillReplicas > maxFast {
			maxFast = d.PrefillReplicas
		}
	}
	if maxSlow == 0 {
		t.Fatal("no split deployments with a dedicated prefill system")
	}
	if maxSlow < maxFast {
		t.Errorf("slower prefill pool should not need fewer replicas: %d vs %d", maxSlow, maxFast)
	}
}

// TestFrontierOwnsExactBuffer is the retention regression: compaction keeps
// survivors at the front of the candidate buffer, and returning that slice
// would pin the whole buffer for as long as the Result lives (a daemon keeps
// many). The frontier must be an exact-length copy.
func TestFrontierOwnsExactBuffer(t *testing.T) {
	spec := basicSpec()
	spec.Space.Disaggregate = true
	res, err := Search(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frontier) == 0 {
		t.Fatal("empty frontier proves nothing")
	}
	if cap(res.Frontier) != len(res.Frontier) {
		t.Errorf("frontier of %d points holds a %d-slot buffer", len(res.Frontier), cap(res.Frontier))
	}
}
