package resultstore

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"testing"

	"calculon/internal/model"
	"calculon/internal/search"
	"calculon/internal/serving"
	"calculon/internal/system"
	"calculon/internal/units"
)

// servingSpec is a small but non-trivial serving problem: two mix buckets,
// disaggregation on, a real frontier.
func servingSpec() serving.Spec {
	return serving.Spec{
		Model:  model.MustPreset("gpt3-13B"),
		System: system.A100(16),
		Workload: serving.Workload{
			Mix: []serving.Bucket{
				{PromptLen: 512, GenLen: 128, Weight: 3},
				{PromptLen: 2048, GenLen: 256, Weight: 1},
			},
			SLO: serving.SLO{TTFT: 30, TPOT: 1},
		},
		Space: serving.Space{Procs: 16, MaxBatch: 16, Disaggregate: true},
	}
}

// TestServingWarmLookup is the serving store's equivalence contract: a
// search served from the store must be byte-identical to the fresh
// evaluation that populated it, across a process restart (reopen), and must
// not have evaluated anything.
func TestServingWarmLookup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := servingSpec()
	opts := serving.Options{Cache: st.ServingCache()}
	cold, err := serving.Search(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Feasible == 0 {
		t.Fatal("seed search found nothing; the warm path would be vacuous")
	}
	if s := st.Stats(); s.Misses != 1 || s.Appends != 1 {
		t.Fatalf("cold-run stats = %+v, want 1 miss and 1 append", s)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if s := st2.Stats(); s.Rows != 1 || s.Stale != 0 {
		t.Fatalf("reopen stats = %+v, want the one serving row", s)
	}
	warm, err := serving.Search(context.Background(), spec, serving.Options{Cache: st2.ServingCache()})
	if err != nil {
		t.Fatal(err)
	}
	if s := st2.Stats(); s.Hits != 1 || s.Appends != 0 {
		t.Fatalf("warm-run stats = %+v, want 1 hit and no append", s)
	}
	a, errA := json.MarshalIndent(cold, "", "  ")
	b, errB := json.MarshalIndent(warm, "", "  ")
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("warm result diverges from cold:\n%s\nvs\n%s", a, b)
	}
}

// TestServingKeySeparatesSearches: result-affecting inputs must move the
// key; scheduling knobs must not.
func TestServingKeySeparatesSearches(t *testing.T) {
	spec := servingSpec().Normalize()
	base, err := ServingKey(spec, serving.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := ServingKey(spec, serving.Options{Workers: 7, Progress: &search.Progress{}})
	if err != nil {
		t.Fatal(err)
	}
	if base != sched {
		t.Error("scheduling knobs moved the serving key; sharded sweeps would never share rows")
	}
	for name, mutate := range map[string]func(*serving.Spec, *serving.Options){
		"slo":        func(s *serving.Spec, _ *serving.Options) { s.Workload.SLO.TPOT = units.Seconds(0.5) },
		"space":      func(s *serving.Spec, _ *serving.Options) { s.Space.MaxBatch = 8 },
		"prefillsys": func(s *serving.Spec, _ *serving.Options) { sys := system.A100(16); s.PrefillSystem = &sys },
	} {
		sp, op := spec, serving.Options{}
		mutate(&sp, &op)
		k, err := ServingKey(sp, op)
		if err != nil {
			t.Fatal(err)
		}
		if k == base {
			t.Errorf("%s: a result-affecting input did not move the serving key", name)
		}
	}
}

// TestServingRowsCoexistWithTraining: one file holds both kinds; a
// ServingSpaceVersion bump (simulated with a raw row) evicts serving rows
// without touching training rows, and vice versa is covered by the
// kind-aware staleness rule.
func TestServingRowsCoexistWithTraining(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	spec := servingSpec().Normalize()
	key, err := ServingKey(spec, serving.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := serving.Result{Evaluated: 5, Feasible: 1}
	oldServing := NewServingRow(key+"-old", spec, res)
	oldServing.Space = ServingSpaceVersion + 1
	futureKind := NewServingRow(key+"-future", spec, res)
	futureKind.Kind = "holographic"
	writeRawRows(t, path,
		testRow("train", 10),
		NewServingRow(key, spec, res),
		oldServing,
		futureKind,
	)

	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if s := st.Stats(); s.Rows != 2 || s.Loaded != 4 || s.Stale != 2 {
		t.Fatalf("stats = %+v, want train+serving live and old-space+unknown-kind stale", s)
	}
	if _, ok := st.verdict("train"); !ok {
		t.Error("training row lost in a mixed-kind file")
	}
	if row, ok := st.lookup(key, KindServing); !ok || row.Serving.Evaluated != 5 {
		t.Errorf("serving row = (%+v, %v), want evaluated 5", row, ok)
	}
	// The kinds do not bleed into each other: a training lookup misses a
	// serving row under the same key.
	if _, ok := st.verdict(key); ok {
		t.Error("serving row served to a training lookup")
	}
}

// TestServingRowWithoutPayloadRejected pins the decode invariant: a
// committed serving row missing its payload is corruption.
func TestServingRowWithoutPayloadRejected(t *testing.T) {
	row := NewServingRow("k", servingSpec().Normalize(), serving.Result{})
	row.Serving = nil
	if _, err := decodeRow(mustMarshal(t, row)); err == nil {
		t.Error("decodeRow accepted a serving row without a serving verdict")
	}
	st, err := Open(filepath.Join(t.TempDir(), "store.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Append(row); err == nil {
		t.Error("Append accepted a serving row without a serving verdict")
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
