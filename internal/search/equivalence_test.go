package search

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/system"
	"calculon/internal/units"
)

// TestTwoPhaseEquivalence is the proof obligation of the two-phase
// evaluation: over randomized (model, system, enumeration) draws, the search
// with the analytic pre-screen and the block-profile memo enabled must
// return results bit-identical to the direct path — same best strategy and
// numbers, same top-K set, same evaluated/feasible counts, same Pareto
// front. Both fast paths are exact rewrites, not approximations; any
// drift here is a bug in the pre-screen bound or the memo key. The CI race
// job runs this test with -race, which also exercises the concurrent memo.
func TestTwoPhaseEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	models := []string{"gpt3-13B", "megatron-22B", "gpt2-1.5B", "chinchilla-70B"}
	features := []execution.FeatureSet{
		execution.FeatureBaseline, execution.FeatureSeqPar, execution.FeatureAll,
	}
	procChoices := []int{8, 16, 32}
	batchChoices := []int{8, 16, 32}

	const draws = 12
	for i := 0; i < draws; i++ {
		m := model.MustPreset(models[rng.Intn(len(models))]).
			WithBatch(batchChoices[rng.Intn(len(batchChoices))])
		procs := procChoices[rng.Intn(len(procChoices))]
		sys := system.A100(procs)
		switch rng.Intn(3) {
		case 0:
			// Tight first tier: most strategies die on the weight/optimizer
			// lower bound, stressing the pre-screen reject path.
			sys = sys.WithMem1Capacity(sys.Mem1.Capacity / 4)
		case 1:
			// Second tier present: offload toggles enter the space and the
			// mem2 bound becomes live.
			sys = sys.WithMem2(system.DDR5(512 * units.GiB))
		}
		opts := Options{
			Enum: execution.EnumOptions{
				Features:      features[rng.Intn(len(features))],
				MaxTP:         8,
				MaxInterleave: 2,
				PinBeneficial: rng.Intn(2) == 0,
			},
			Workers: 1 + rng.Intn(4),
			TopK:    1 + rng.Intn(8),
			Pareto:  true,
		}

		fast, err := Execution(context.Background(), m, sys, opts)
		if err != nil {
			t.Fatalf("draw %d: fast search: %v", i, err)
		}
		for _, ref := range []struct {
			name             string
			noScreen, noMemo bool
		}{
			{"no-prescreen", true, false},
			{"no-memo", false, true},
			{"direct", true, true},
			// Pre-screen and memo on, but the lattice-level subtree prune off:
			// pins the per-leaf and per-subtree accounting to each other,
			// PreScreened included.
			{"no-subtree-prune", false, false},
			// Everything on except incremental evaluation: every worker takes
			// the scratch path, pinning the delta chains (the default) to it
			// bit for bit — results and counters both.
			{"no-delta", false, false},
		} {
			o := opts
			o.ref = refArms{
				noPreScreen:    ref.noScreen,
				noMemo:         ref.noMemo,
				noSubtreePrune: ref.name == "no-subtree-prune",
				noDelta:        ref.name == "no-delta",
			}
			o.Workers = 1 + rng.Intn(4)
			slow, err := Execution(context.Background(), m, sys, o)
			if err != nil {
				t.Fatalf("draw %d (%s): reference search: %v", i, ref.name, err)
			}
			if fast.Evaluated != slow.Evaluated || fast.Feasible != slow.Feasible {
				t.Errorf("draw %d (%s): counts diverge: fast (%d,%d) vs reference (%d,%d)",
					i, ref.name, fast.Evaluated, fast.Feasible, slow.Evaluated, slow.Feasible)
			}
			if fast.Found() != slow.Found() {
				t.Fatalf("draw %d (%s): feasibility verdict diverges", i, ref.name)
			}
			if !reflect.DeepEqual(fast.Best, slow.Best) {
				t.Errorf("draw %d (%s): best diverges:\nfast: %+v %v\nreference: %+v %v",
					i, ref.name, fast.Best.Strategy, fast.Best.BatchTime,
					slow.Best.Strategy, slow.Best.BatchTime)
			}
			if !reflect.DeepEqual(fast.Top, slow.Top) {
				t.Errorf("draw %d (%s): top-%d diverges", i, ref.name, opts.TopK)
			}
			if !reflect.DeepEqual(fast.Pareto, slow.Pareto) {
				t.Errorf("draw %d (%s): Pareto front diverges (%d vs %d points)",
					i, ref.name, len(fast.Pareto), len(slow.Pareto))
			}
			if ref.noScreen && slow.PreScreened != 0 {
				t.Errorf("draw %d (%s): %d pre-screened with the filter disabled",
					i, ref.name, slow.PreScreened)
			}
			if ref.noMemo && slow.CacheHits != 0 {
				t.Errorf("draw %d (%s): %d cache hits with the memo disabled",
					i, ref.name, slow.CacheHits)
			}
			if (ref.noScreen || o.ref.noSubtreePrune) && slow.SubtreePruned != 0 {
				t.Errorf("draw %d (%s): %d subtree-pruned with pruning disabled",
					i, ref.name, slow.SubtreePruned)
			}
			if ref.name == "no-subtree-prune" && fast.PreScreened != slow.PreScreened {
				t.Errorf("draw %d (%s): pre-screened diverges: %d with subtree pruning vs %d without",
					i, ref.name, fast.PreScreened, slow.PreScreened)
			}
			if ref.name == "no-delta" &&
				(fast.PreScreened != slow.PreScreened || fast.SubtreePruned != slow.SubtreePruned) {
				t.Errorf("draw %d (%s): counters diverge between delta and scratch: (%d,%d) vs (%d,%d)",
					i, ref.name, fast.PreScreened, fast.SubtreePruned, slow.PreScreened, slow.SubtreePruned)
			}
		}
		// The fast path's counters must be internally consistent: pre-screened
		// strategies are a subset of the infeasible ones, and cache hits never
		// exceed the evaluations that reached phase 2.
		if fast.PreScreened > fast.Evaluated-fast.Feasible {
			t.Errorf("draw %d: %d pre-screened exceeds %d infeasible",
				i, fast.PreScreened, fast.Evaluated-fast.Feasible)
		}
		if fast.CacheHits > fast.Evaluated-fast.PreScreened {
			t.Errorf("draw %d: %d cache hits exceed %d phase-2 evaluations",
				i, fast.CacheHits, fast.Evaluated-fast.PreScreened)
		}
		// Subtree-pruned leaves are pre-screened leaves that were never
		// generated, so the count is bounded by PreScreened.
		if fast.SubtreePruned > fast.PreScreened {
			t.Errorf("draw %d: %d subtree-pruned exceeds %d pre-screened",
				i, fast.SubtreePruned, fast.PreScreened)
		}
	}
}

// TestTwoPhaseCountersReported sanity-checks that a default search actually
// exercises both fast paths — a memo key space orders of magnitude smaller
// than the strategy space guarantees hits, and a capacity-limited system
// guarantees pre-screen rejections. Guards against silently wiring the
// counters to a dead path.
func TestTwoPhaseCountersReported(t *testing.T) {
	m := model.MustPreset("gpt3-13B").WithBatch(32)
	sys := system.A100(16)
	res, err := Execution(context.Background(), m, sys, Options{
		Enum: execution.EnumOptions{Features: execution.FeatureSeqPar, MaxInterleave: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits == 0 {
		t.Error("expected block-profile cache hits in a default search")
	}
	// 13B parameters on 16 A100s cannot hold low-parallelism shards: the
	// weight/optimizer lower bound alone overflows 80 GiB, so the pre-screen
	// must fire.
	if res.PreScreened == 0 {
		t.Error("expected pre-screen rejections on a capacity-limited system")
	}
	if res.PreScreened > res.Evaluated-res.Feasible {
		t.Errorf("pre-screened %d exceeds infeasible %d",
			res.PreScreened, res.Evaluated-res.Feasible)
	}
}

// countingCache is a Cache that never hits and counts its calls.
type countingCache struct{ lookups, stores int }

func (c *countingCache) Lookup(model.LLM, system.System, Options) (Result, bool) {
	c.lookups++
	return Result{}, false
}

func (c *countingCache) Store(model.LLM, system.System, Options, Result) { c.stores++ }

// TestReferenceArmsBypassCache: the store key does not tell the reference
// arms apart, so a search running one must neither consult nor feed the
// Cache — otherwise its zeroed counters would later be served to a default
// search. The default search consults it once and feeds it once.
func TestReferenceArmsBypassCache(t *testing.T) {
	m := model.MustPreset("gpt3-13B").WithBatch(8)
	sys := system.A100(8)
	for _, arm := range []struct {
		name string
		ref  refArms
		want int
	}{
		{"default", refArms{}, 1},
		{"no-prescreen", refArms{noPreScreen: true}, 0},
		{"no-memo", refArms{noMemo: true}, 0},
		{"no-subtree-prune", refArms{noSubtreePrune: true}, 0},
		{"no-delta", refArms{noDelta: true}, 0},
	} {
		cache := &countingCache{}
		opts := Options{Enum: execution.EnumOptions{MaxInterleave: 1}, Workers: 1, Cache: cache, ref: arm.ref}
		if _, err := Execution(context.Background(), m, sys, opts); err != nil {
			t.Fatalf("%s: %v", arm.name, err)
		}
		if cache.lookups != arm.want || cache.stores != arm.want {
			t.Errorf("%s: %d lookups and %d stores, want %d of each", arm.name, cache.lookups, cache.stores, arm.want)
		}
	}
}
