package search

import (
	"cmp"
	"context"
	"math/rand"
	"slices"
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

// paretoFront folds results through the search's time-versus-memory
// instantiation of the shared fold, with input order as the enumeration
// sequence.
func paretoFront(results []perf.Result) []perf.Result {
	ws := newWorkerState(0, true)
	for i, r := range results {
		ws.front.Push(scored{i, r})
	}
	var front []perf.Result
	for _, s := range ws.front.Front() {
		front = append(front, s.res)
	}
	return front
}

// bruteFront is the O(n²) reference for a Pareto fold: a point survives
// when no other point beats it — weakly dominates it and is strictly better
// on some objective, or equal on all and earlier in sequence. Survivors are
// listed in the fold's order.
func bruteFront[T any](pts []T, before func(a, b *T) int, dominates func(a, b *T) bool, seq func(*T) int) []T {
	var out []T
	for i := range pts {
		p := &pts[i]
		beaten := false
		for j := range pts {
			q := &pts[j]
			if j != i && dominates(q, p) && (!dominates(p, q) || seq(q) < seq(p)) {
				beaten = true
				break
			}
		}
		if !beaten {
			out = append(out, *p)
		}
	}
	slices.SortFunc(out, func(a, b T) int { return before(&a, &b) })
	return out
}

// foldRandomly feeds pts to several folds in a random arrival order, takes
// a front or merges one fold into another at random points, and merges
// everything into one front at the end — every way the searches split and
// merge a stream.
func foldRandomly[T any](rng *rand.Rand, pts []T, newFold func() ParetoFold[T]) []T {
	folds := make([]ParetoFold[T], 1+rng.Intn(4))
	for i := range folds {
		folds[i] = newFold()
	}
	for _, i := range rng.Perm(len(pts)) {
		f := &folds[rng.Intn(len(folds))]
		f.Push(pts[i])
		switch rng.Intn(64) {
		case 0:
			f.Front()
		case 1:
			o := &folds[rng.Intn(len(folds))]
			if o != f {
				mergeFold(f, o)
				*o = newFold()
			}
		}
	}
	for i := 1; i < len(folds); i++ {
		mergeFold(&folds[0], &folds[i])
	}
	return folds[0].Front()
}

// mergeFold folds every point of o into f, the way a worker's or a shard's
// front joins another.
func mergeFold[T any](f, o *ParetoFold[T]) {
	for _, p := range o.Front() {
		f.Push(p)
	}
}

// TestParetoFoldMatchesBruteForce is the shared fold's property test on
// the time-versus-memory instantiation: over random streams with heavy
// objective ties, any arrival order and any merge points,
// the front equals the brute-force reference seq for seq, so the lowest seq
// survives among objective-equal points.
func TestParetoFoldMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(600)
		levels := 1 + rng.Intn(12)
		pts := make([]scored, n)
		for i := range pts {
			pts[i] = scored{i, resultTM(float64(1+rng.Intn(levels)), float64(1+rng.Intn(levels)))}
		}
		seq := func(s *scored) int { return s.seq }
		want := bruteFront(pts, timeMemBefore, timeMemDominates, seq)
		got := foldRandomly(rng, pts, func() ParetoFold[scored] { return newWorkerState(0, true).front })
		if len(got) != len(want) {
			t.Fatalf("trial %d: front holds %d points, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].seq != want[i].seq {
				t.Fatalf("trial %d: front[%d] is seq %d, want %d", trial, i, got[i].seq, want[i].seq)
			}
		}
	}
}

// BenchmarkParetoFold measures the shared fold on a stream shaped like a
// search's — mostly dominated points, with objective ties — for the
// time-versus-memory instantiation and for a three-objective point shaped
// like a serving deployment. Each op folds the whole stream into a fresh
// fold and takes its front, so allocs/op is the fold's fixed cost and must
// not grow with the stream.
func BenchmarkParetoFold(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.Run("time-mem", func(b *testing.B) {
		stream := make([]scored, 4096)
		for i := range stream {
			stream[i] = scored{i, resultTM(float64(1+rng.Intn(256)), float64(1+rng.Intn(256)))}
		}
		benchFold(b, stream, func() ParetoFold[scored] { return newWorkerState(0, true).front })
	})
	b.Run("three-objective", func(b *testing.B) {
		stream := make([]point3, 4096)
		for i := range stream {
			stream[i] = point3{seq: i, cost: float64(1 + rng.Intn(64)), user: float64(1 + rng.Intn(64)), cluster: float64(1 + rng.Intn(64))}
		}
		benchFold(b, stream, func() ParetoFold[point3] { return NewParetoFold(point3Before, point3Dominates) })
	})
}

func benchFold[T any](b *testing.B, stream []T, newFold func() ParetoFold[T]) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := newFold()
		for j := range stream {
			f.Push(stream[j])
		}
		if len(f.Front()) == 0 {
			b.Fatal("empty front")
		}
	}
	b.ReportMetric(float64(len(stream))*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

// point3 is a three-objective point with the serving frontier's
// objectives: cost ↓, per-user rate ↑, cluster rate ↑.
type point3 struct {
	seq                 int
	cost, user, cluster float64
	_                   [10]float64 // the rest of a deployment's payload
}

func point3Before(a, b *point3) int {
	return cmp.Or(cmp.Compare(a.cost, b.cost), cmp.Compare(b.user, a.user), cmp.Compare(b.cluster, a.cluster), cmp.Compare(a.seq, b.seq))
}

func point3Dominates(a, b *point3) bool {
	return a.cost <= b.cost && a.user >= b.user && a.cluster >= b.cluster
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
