package serving

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"calculon/internal/system"
	"calculon/internal/units"
)

// goldenSpecs are fixed serving searches covering every pricing path of a
// search: colocated, disaggregated, KV offload, a distinct prefill system,
// and a capacity-squeezed system where the pre-screen rejects engines.
func goldenSpecs() map[string]Spec {
	colocated := basicSpec()

	disagg := basicSpec()
	disagg.Space.Disaggregate = true

	// A rare very long generation: its batch-1 KV cache fits in HBM only
	// on wide engines, so the KV placement decides which narrow engines
	// stay feasible.
	offload := basicSpec()
	offload.System = offload.System.WithMem1Capacity(offload.System.Mem1.Capacity / 2).
		WithMem2(system.DDR5(512 * units.GiB))
	offload.Workload.Mix = append(offload.Workload.Mix, Bucket{PromptLen: 512, GenLen: 32768, Weight: 0.05})
	offload.Space.KVOffload = true
	offload.Space.Disaggregate = true

	prefill := basicSpec()
	prefill.Space.Disaggregate = true
	slow := system.A100(16)
	slow.Compute.MatrixPeak /= 4
	slow.Compute.VectorPeak /= 4
	prefill.PrefillSystem = &slow

	squeezed := basicSpec()
	squeezed.System = squeezed.System.WithMem1Capacity(squeezed.System.Mem1.Capacity / 4)
	squeezed.Space.Disaggregate = true

	return map[string]Spec{
		"colocated":      colocated,
		"disaggregated":  disagg,
		"kv-offload":     offload,
		"prefill-system": prefill,
		"squeezed":       squeezed,
	}
}

// goldenDigests are the SHA-256 digests of each golden spec's canonical
// (json.Marshal) Result. Any change to the bits a serving search returns —
// a memo serving a stale estimate, a reordered sum — changes a digest.
// Update them only for a deliberate model change, never for a speed-up.
var goldenDigests = map[string]string{
	"colocated":      "22d5e698f394ae7ca364722fb507907569ed1a34019c0ca02676f9fa3397b92f",
	"disaggregated":  "7b267b086f531adc1a453ee0fea6434c82f135a024b5282b66328a72329e01ba",
	"kv-offload":     "a28d8020ed44f4f4da9321d939f75fa7de643bcf508eecc2b87add80f816bce3",
	"prefill-system": "641075608c44282cec6517d25e4c5a52788a0ac2a9d94c1092680fe9957ee7f3",
	"squeezed":       "41fcee084782f80759be6dd6d232ce372481ed0103f923cd8c40a66ec35f6193",
}

// TestServingGoldens pins the serving search's output bit for bit. The
// equivalence suites compare two arms of the same build (worker counts,
// pre-screen on/off), so only a fixed digest catches a change both arms
// share.
func TestServingGoldens(t *testing.T) {
	for name, spec := range goldenSpecs() {
		res, err := Search(context.Background(), spec, Options{Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Frontier) == 0 {
			t.Fatalf("%s: empty frontier pins nothing", name)
		}
		if name == "squeezed" && res.PreScreened == 0 {
			t.Fatalf("%s: the pre-screen rejected nothing", name)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != goldenDigests[name] {
			t.Errorf("%s: result digest %s, want %s (evaluated %d, feasible %d, pre-screened %d, frontier %d)",
				name, got, goldenDigests[name], res.Evaluated, res.Feasible, res.PreScreened, len(res.Frontier))
		}
	}
}
