package search

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/perf"
	"calculon/internal/system"
)

// foldStream is a feasible-result stream with heavy sample-rate ties: n
// results drawn from a handful of distinct rates, each tagged with its
// sequence number in ProcsUsed so a folded Result names its candidate.
func foldStream(rng *rand.Rand, n, rates int) []perf.Result {
	out := make([]perf.Result, n)
	for i := range out {
		out[i].SampleRate = float64(1 + rng.Intn(rates))
		out[i].ProcsUsed = i
	}
	return out
}

// foldWorkers folds the stream the way the search does: the stream is cut
// into chunks of increasing sequence numbers, each chunk goes to one
// worker, and the workers' states merge into one.
func foldWorkers(rng *rand.Rand, stream []perf.Result, topK, workers int) Result {
	ws := make([]workerState, workers)
	for w := range ws {
		ws[w] = workerState{topK: topK}
	}
	for lo := 0; lo < len(stream); {
		hi := min(len(stream), lo+1+rng.Intn(16))
		w := &ws[rng.Intn(workers)]
		for seq := lo; seq < hi; seq++ {
			w.add(seq, &stream[seq], false)
		}
		lo = hi
	}
	merged := workerState{topK: topK}
	for w := range ws {
		merged.merge(&ws[w])
	}
	return resultFrom(merged, 0, Options{TopK: topK})
}

// TestTopKFoldMatchesFullSort is the fold's property test: over random
// streams with heavy rate ties, any K and any worker count, Best and Top
// equal — candidate for candidate — the prefix of a full stable sort by
// (rate descending, sequence ascending), and Top carries no spare capacity.
func TestTopKFoldMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		stream := foldStream(rng, 1+rng.Intn(400), 1+rng.Intn(6))
		ref := append([]perf.Result(nil), stream...)
		sort.SliceStable(ref, func(i, j int) bool { return ref[i].SampleRate > ref[j].SampleRate })
		for _, k := range []int{1, 5, 24} {
			for workers := 1; workers <= 4; workers++ {
				got := foldWorkers(rng, stream, k, workers)
				if got.Feasible != len(stream) {
					t.Fatalf("trial %d k=%d w=%d: feasible %d, want %d", trial, k, workers, got.Feasible, len(stream))
				}
				if got.Best.ProcsUsed != ref[0].ProcsUsed {
					t.Fatalf("trial %d k=%d w=%d: best is seq %d, want %d", trial, k, workers, got.Best.ProcsUsed, ref[0].ProcsUsed)
				}
				want := ref[:min(k, len(ref))]
				if len(got.Top) != len(want) || cap(got.Top) != len(want) {
					t.Fatalf("trial %d k=%d w=%d: top len %d cap %d, want %d", trial, k, workers, len(got.Top), cap(got.Top), len(want))
				}
				for i := range want {
					if got.Top[i].ProcsUsed != want[i].ProcsUsed {
						t.Fatalf("trial %d k=%d w=%d: top[%d] is seq %d, want %d", trial, k, workers, i, got.Top[i].ProcsUsed, want[i].ProcsUsed)
					}
				}
			}
		}
	}
}

// TestFrontsOwnExactBuffers is the retention regression for the search's
// outputs: the daemon registry and the store index keep finished Results
// and shard results alive, so Top, Pareto and the shard fronts must be
// exact-length slices, not the tail of a larger append buffer.
func TestFrontsOwnExactBuffers(t *testing.T) {
	m := model.MustPreset("gpt3-13B").WithBatch(64)
	sys := system.A100(64)
	opts := Options{
		Enum:   execution.EnumOptions{Procs: 64, Features: execution.FeatureSeqPar, MaxInterleave: 2},
		TopK:   5,
		Pareto: true,
	}
	res, err := Execution(context.Background(), m, sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := ExecutionShard(context.Background(), m, sys, opts, Shard{Index: 0, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		len, cap int
	}{
		{"Top", len(res.Top), cap(res.Top)},
		{"Pareto", len(res.Pareto), cap(res.Pareto)},
		{"shard Top", len(sr.Top), cap(sr.Top)},
		{"shard Front", len(sr.Front), cap(sr.Front)},
	} {
		if c.len == 0 {
			t.Errorf("%s is empty, which proves nothing", c.name)
		}
		if c.cap != c.len {
			t.Errorf("%s of %d entries holds a %d-slot buffer", c.name, c.len, c.cap)
		}
	}
}

// BenchmarkTopKFold measures the per-worker top-K fold over a stream of
// feasible results shaped like a search's: mostly losers after warm-up,
// with rate ties. Each op folds the whole stream into a fresh state and
// ranks it, so allocs/op is the fold's fixed cost (the top buffer and the
// exact-length output) and must not grow with the stream.
func BenchmarkTopKFold(b *testing.B) {
	stream := foldStream(rand.New(rand.NewSource(1)), 4096, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ws := workerState{topK: 24}
		for seq := range stream {
			ws.add(seq, &stream[seq], false)
		}
		if res := resultFrom(ws, 0, Options{TopK: 24}); len(res.Top) != 24 {
			b.Fatalf("top holds %d results, want 24", len(res.Top))
		}
	}
	b.ReportMetric(float64(len(stream))*float64(b.N)/b.Elapsed().Seconds(), "strategies/s")
}
