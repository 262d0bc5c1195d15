package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"calculon/internal/model"
	"calculon/internal/system"
	"calculon/internal/units"
)

// randomSpec draws a serving search problem: models of several sizes,
// sometimes capacity-squeezed or offload-capable systems, 1–3 mix buckets,
// SLOs from generous to unmeetable, and random space bounds. The same
// generator feeds both equivalence proofs.
func randomSpec(rng *rand.Rand) Spec {
	models := []string{"gpt3-13B", "gpt3-6.7B", "gpt2-1.5B"}
	procChoices := []int{8, 16, 32}
	sys := system.A100(procChoices[rng.Intn(len(procChoices))])
	switch rng.Intn(3) {
	case 0:
		// Tight first tier: most engines die on the weight/KV lower bound,
		// stressing the pre-screen reject path.
		sys = sys.WithMem1Capacity(sys.Mem1.Capacity / 4)
	case 1:
		// Second tier present: KV offload engines enter the space and the
		// mem2 bound becomes live.
		sys = sys.WithMem2(system.DDR5(512 * units.GiB))
	}
	mix := make([]Bucket, 1+rng.Intn(3))
	for i := range mix {
		mix[i] = Bucket{
			PromptLen: 64 << rng.Intn(5),
			GenLen:    16 << rng.Intn(4),
			Weight:    1 + rng.Float64()*4,
		}
	}
	return Spec{
		Model:  model.MustPreset(models[rng.Intn(len(models))]),
		System: sys,
		Workload: Workload{
			Mix: mix,
			SLO: SLO{
				TTFT: units.Seconds(0.05 * float64(uint(1)<<rng.Intn(10))),
				TPOT: units.Seconds(0.002 * float64(uint(1)<<rng.Intn(10))),
			},
		},
		Space: Space{
			Procs:        sys.Procs,
			MaxBatch:     8 << rng.Intn(3),
			MaxReplicas:  4 * rng.Intn(3), // 0 (unbounded), 4, or 8
			KVOffload:    rng.Intn(2) == 0,
			Disaggregate: rng.Intn(2) == 0,
		},
	}
}

// mustJSON is the byte-level view the CLI emits; comparing it proves not
// just equal values but identical formatted output.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWorkerCountEquivalence is the determinism contract: the serving
// search's output must be byte-identical between one worker and many. The
// CI race job runs this with -race, so the byte-equality proof and the
// data-race proof cover the same executions.
func TestWorkerCountEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const draws = 10
	for i := 0; i < draws; i++ {
		spec := randomSpec(rng)
		one, err := Search(context.Background(), spec, Options{Workers: 1})
		if err != nil {
			t.Fatalf("draw %d: single-worker search: %v", i, err)
		}
		workers := 2 + rng.Intn(7)
		many, err := Search(context.Background(), spec, Options{Workers: workers})
		if err != nil {
			t.Fatalf("draw %d: %d-worker search: %v", i, workers, err)
		}
		a, b := mustJSON(t, one), mustJSON(t, many)
		if !bytes.Equal(a, b) {
			t.Errorf("draw %d: output diverges between 1 and %d workers:\n%s\nvs\n%s", i, workers, a, b)
		}
	}
}

// TestPreScreenSoundness is the pre-screen's proof obligation: the
// closed-form capacity bound may only reject engines the full evaluation
// would also reject, so results with the screen on and off (the escape
// hatch) must be byte-identical — same frontier, same Feasible, same
// Evaluated. Only the PreScreened diagnostic may differ.
func TestPreScreenSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const draws = 10
	sawRejections := false
	for i := 0; i < draws; i++ {
		spec := randomSpec(rng)
		screened, err := Search(context.Background(), spec, Options{Workers: 1 + rng.Intn(4)})
		if err != nil {
			t.Fatalf("draw %d: screened search: %v", i, err)
		}
		scratch, err := Search(context.Background(), spec, Options{
			Workers:     1 + rng.Intn(4),
			noPreScreen: true,
		})
		if err != nil {
			t.Fatalf("draw %d: scratch search: %v", i, err)
		}
		if scratch.PreScreened != 0 {
			t.Fatalf("draw %d: %d pre-screened with the filter disabled", i, scratch.PreScreened)
		}
		sawRejections = sawRejections || screened.PreScreened > 0
		// Blank the diagnostic and compare everything else byte for byte.
		sr := screened
		sr.PreScreened = 0
		a, b := mustJSON(t, sr), mustJSON(t, scratch)
		if !bytes.Equal(a, b) {
			t.Errorf("draw %d: pre-screen changed the result:\n%s\nvs\n%s", i, a, b)
		}
	}
	if !sawRejections {
		t.Error("no draw exercised the pre-screen reject path; tighten the generator")
	}
}

// TestPreScreenFires pins the screen to a live reject path on a
// deterministic spec: a 13B model with a quartered HBM cannot hold its
// low-TP shards, so PreScreened must be non-zero.
func TestPreScreenFires(t *testing.T) {
	spec := basicSpec()
	spec.System = spec.System.WithMem1Capacity(spec.System.Mem1.Capacity / 4)
	res, err := Search(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PreScreened == 0 {
		t.Fatal("expected pre-screen rejections on a capacity-limited system")
	}
	if res.PreScreened > res.Evaluated {
		t.Fatalf("pre-screened %d exceeds evaluated %d", res.PreScreened, res.Evaluated)
	}
}

// TestSweepWorkerEquivalence extends the determinism contract to the
// right-sizing sweep: the per-size results must be byte-identical however
// the worker budget is partitioned.
func TestSweepWorkerEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	spec := randomSpec(rng)
	sizes := []int{4, 8, 16}
	one, err := Sweep(context.Background(), spec, sizes, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	many, err := Sweep(context.Background(), spec, sizes, Options{Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	a, b := mustJSON(t, one), mustJSON(t, many)
	if !bytes.Equal(a, b) {
		t.Errorf("sweep output diverges across worker budgets:\n%s\nvs\n%s", a, b)
	}
}

// countingCache is a Cache that never hits and counts its calls.
type countingCache struct{ lookups, stores int }

func (c *countingCache) Lookup(Spec, Options) (Result, bool) {
	c.lookups++
	return Result{}, false
}

func (c *countingCache) Store(Spec, Options, Result) { c.stores++ }

// TestPreScreenArmBypassesCache: the store key does not tell the
// pre-screen-off reference arm apart, so a search running it must neither
// consult nor feed the Cache — otherwise its zero PreScreened would later
// be served to a default search. The default search consults it once and
// feeds it once.
func TestPreScreenArmBypassesCache(t *testing.T) {
	for _, noPreScreen := range []bool{false, true} {
		cache := &countingCache{}
		if _, err := Search(context.Background(), basicSpec(), Options{Workers: 1, Cache: cache, noPreScreen: noPreScreen}); err != nil {
			t.Fatal(err)
		}
		want := 1
		if noPreScreen {
			want = 0
		}
		if cache.lookups != want || cache.stores != want {
			t.Errorf("noPreScreen=%v: %d lookups and %d stores, want %d of each", noPreScreen, cache.lookups, cache.stores, want)
		}
	}
}
