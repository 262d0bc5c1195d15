package inference

import (
	"testing"

	"calculon/internal/model"
	"calculon/internal/system"
)

// benchSink keeps the compiler from discarding the measured calls.
var benchSink Result

// benchPoint is the shared serving point of the estimate benchmarks: a
// pipelined, tensor-parallel gpt3-175B engine at a mid-size batch.
func benchPoint() (model.LLM, system.System, Workload) {
	return model.MustPreset("gpt3-175B"), system.A100(16),
		Workload{PromptLen: 1024, GenLen: 256, Batch: 16}
}

// BenchmarkEstimate measures the cold package-level Estimate: every call
// builds and prices both layer graphs from scratch. Tracked by
// BENCH_BASELINE.json for allocs/op.
func BenchmarkEstimate(b *testing.B) {
	m, sys, w := benchPoint()
	st := serving(8, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := Estimate(m, sys, st, w)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = r
	}
}

// BenchmarkEstimatorWarm measures the same point through a shared, warm
// Estimator — the steady state of a serving search, where the prefill
// Runner and the decode totals come from the memos. Tracked by
// BENCH_BASELINE.json for allocs/op.
func BenchmarkEstimatorWarm(b *testing.B) {
	m, sys, w := benchPoint()
	st := serving(8, 2)
	est := NewEstimator(m, sys)
	if _, err := est.Estimate(sys.Procs, st, w); err != nil { // warm the memos outside the timer
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := est.Estimate(sys.Procs, st, w)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = r
	}
}
