package search

import (
	"context"
	"testing"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/system"
)

// BenchmarkExecutionSearch measures end-to-end search throughput on the
// scratch path (incremental evaluation disabled) — the paper's headline
// capability ("millions of combinations in only a few minutes on a standard
// desktop computer"). The strategies-per-second metric is the number to
// watch; BenchmarkExecutionSearchDelta runs the identical search on the
// default delta path, so the ratio of the two keeps the delta win honest
// the same way the sweep/no-prune pair does for the lattice prune.
func BenchmarkExecutionSearch(b *testing.B) {
	benchExecutionSearch(b, Options{ref: refArms{noDelta: true}})
}

// BenchmarkExecutionSearchDelta is the identical search on the default
// path: each worker threads a perf.RunDelta chain through the Gray-code-
// adjacent toggle order, recomputing only the term groups each flipped
// toggle can perturb.
func BenchmarkExecutionSearchDelta(b *testing.B) {
	benchExecutionSearch(b, Options{})
}

// BenchmarkParetoSearch is the delta search with the time-versus-memory
// front on (Options.Pareto; the CLI's -pareto and the daemon's pareto
// field), so each feasible strategy also passes through the Pareto fold. Its gap to BenchmarkExecutionSearchDelta is the fold's cost
// inside a real search, where the stream arrives in enumeration order
// rather than the random order of BenchmarkParetoFold.
func BenchmarkParetoSearch(b *testing.B) {
	benchExecutionSearch(b, Options{Pareto: true})
}

// benchExecutionSearch runs the gpt3-13B search of the execution-search
// benchmarks with opts, whose Enum it fills in.
func benchExecutionSearch(b *testing.B, opts Options) {
	m := model.MustPreset("gpt3-13B").WithBatch(64)
	sys := system.A100(64)
	opts.Enum = execution.EnumOptions{Procs: 64, Features: execution.FeatureSeqPar, MaxInterleave: 2}
	var evaluated int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Execution(context.Background(), m, sys, opts)
		if err != nil {
			b.Fatal(err)
		}
		// Accumulate across iterations: extrapolating from the last
		// iteration (evaluated/elapsed·N) over-reports whenever per-
		// iteration times vary; the summed count is exact.
		evaluated += res.Evaluated
	}
	b.ReportMetric(float64(evaluated)/b.Elapsed().Seconds(), "strategies/s")
}

// sweepBenchOptions is the §5.2-shaped configuration both sweep benchmarks
// share: the full feature space with the beneficial toggles pinned, as the
// scaling studies run it. On a capacity-limited accelerator most low-TP
// subtrees fail the closed-form memory bound, which is exactly the regime the
// lattice prune targets.
func sweepBenchOptions() (model.LLM, []int, Options) {
	m := model.MustPreset("turing-530B").WithBatch(3072)
	sizes := Sizes(16, 128) // spans the fit cliff: nothing fits below 112 procs
	opts := Options{Enum: execution.EnumOptions{
		Features:      execution.FeatureAll,
		PinBeneficial: true,
		MaxTP:         32,
		MaxInterleave: 4,
	}}
	return m, sizes, opts
}

// BenchmarkSystemSizeSweep measures a §5.2 system-size sweep end to end with
// the lattice prune and the cross-size shared memo on — the configuration
// the scaling and right-sizing studies actually run. The strategies/s metric
// counts the full space (pruned subtrees included, since their verdicts are
// decided exactly), matching the Evaluated accounting.
func BenchmarkSystemSizeSweep(b *testing.B) {
	m, sizes, opts := sweepBenchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := SystemSize(context.Background(), m, func(n int) system.System { return system.A100(n) }, sizes, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !pts[len(pts)-1].Found {
			b.Fatal("175B should fit at 512 GPUs")
		}
	}
	b.ReportMetric(sweepSpace(m, sizes, opts)*float64(b.N)/b.Elapsed().Seconds(), "strategies/s")
}

// BenchmarkSystemSizeSweepNoPrune is the reference arm: the identical sweep
// with the subtree prune disabled, so every leaf is generated and pre-screened
// individually. The ratio of the two benchmarks' time/op is the prune's
// speedup; CI compares both against the committed baseline.
func BenchmarkSystemSizeSweepNoPrune(b *testing.B) {
	m, sizes, opts := sweepBenchOptions()
	opts.ref.noSubtreePrune = true
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SystemSize(context.Background(), m, func(n int) system.System { return system.A100(n) }, sizes, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(sweepSpace(m, sizes, opts)*float64(b.N)/b.Elapsed().Seconds(), "strategies/s")
}

// sweepSpace is the exact number of strategies one sweep pass covers.
func sweepSpace(m model.LLM, sizes []int, opts Options) float64 {
	total := 0
	for _, n := range sizes {
		e := opts.Enum
		e.Procs = n
		total += e.SpaceSize(m)
	}
	return float64(total)
}
