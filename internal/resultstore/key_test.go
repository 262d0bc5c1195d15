package resultstore

import (
	"encoding/json"
	"fmt"
	"testing"

	"calculon/internal/config"
	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/search"
	"calculon/internal/system"
	"calculon/internal/units"
)

// normalizedOpts builds search options exactly as search.Execution
// normalizes them before consulting the cache: Procs defaulted from the
// system, Features defaulted, HasMem2 derived. The key contract only holds
// for normalized options, so every test goes through this.
func normalizedOpts(sys system.System) search.Options {
	return search.Options{
		Enum: execution.EnumOptions{
			Procs:    sys.Procs,
			Features: execution.FeatureAll,
			HasMem2:  sys.Mem2.Present(),
		},
		TopK: 1,
	}
}

// TestKeyIgnoresDeltaAndScheduling: options proven result-AND-counter
// neutral must not reach the key — a verdict computed under any worker
// count is the same search and must hit the same rows.
func TestKeyIgnoresDeltaAndScheduling(t *testing.T) {
	m := model.MustPreset("gpt3-13B")
	sys := system.A100(64)
	base, err := Key(m, sys, normalizedOpts(sys))
	if err != nil {
		t.Fatal(err)
	}
	for _, mutate := range []func(*search.Options){
		func(o *search.Options) { o.Workers = 7 },
	} {
		o := normalizedOpts(sys)
		mutate(&o)
		k, err := Key(m, sys, o)
		if err != nil {
			t.Fatal(err)
		}
		if k != base {
			t.Errorf("result-neutral option changed the key: %s vs %s", k, base)
		}
	}
}

// TestKeyStableAcrossFieldOrder: the canonical hash must not depend on the
// field order of the JSON files the inputs were loaded from. Two spellings
// of the same model with fields in opposite orders must map to one key.
func TestKeyStableAcrossFieldOrder(t *testing.T) {
	spellings := []string{
		`{"name":"tiny","hidden":1024,"attn_heads":16,"seq":2048,"blocks":24,"batch":512,"vocab":51200}`,
		`{"vocab":51200,"batch":512,"blocks":24,"seq":2048,"attn_heads":16,"hidden":1024,"name":"tiny"}`,
		"{\n  \"batch\": 512,\n  \"name\": \"tiny\",\n  \"seq\": 2048,\n  \"blocks\": 24,\n  \"vocab\": 51200,\n  \"hidden\": 1024,\n  \"attn_heads\": 16\n}",
	}
	sys := system.A100(64)
	keys := make(map[string]bool)
	for i, s := range spellings {
		var m model.LLM
		if err := json.Unmarshal([]byte(s), &m); err != nil {
			t.Fatalf("spelling %d: %v", i, err)
		}
		k, err := Key(m, sys, normalizedOpts(sys))
		if err != nil {
			t.Fatalf("spelling %d: %v", i, err)
		}
		keys[k] = true
	}
	if len(keys) != 1 {
		t.Fatalf("three spellings of one model produced %d distinct keys: %v", len(keys), keys)
	}
}

// TestKeyStableAcrossMapIteration routes the system config through
// map[string]any — whose iteration order Go randomizes per run — and back
// before hashing, many times. encoding/json sorts map keys on marshal, so
// every pass must land on the direct-decode key; a drift here would mean
// the hash depends on an iteration order the runtime does not promise.
func TestKeyStableAcrossMapIteration(t *testing.T) {
	raw, err := json.Marshal(system.A100(256))
	if err != nil {
		t.Fatal(err)
	}
	var direct system.System
	if err := json.Unmarshal(raw, &direct); err != nil {
		t.Fatal(err)
	}
	m := model.MustPreset("gpt3-13B")
	want, err := Key(m, direct, normalizedOpts(direct))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		var loose map[string]any
		if err := json.Unmarshal(raw, &loose); err != nil {
			t.Fatal(err)
		}
		reencoded, err := json.Marshal(loose)
		if err != nil {
			t.Fatal(err)
		}
		var sys system.System
		if err := json.Unmarshal(reencoded, &sys); err != nil {
			t.Fatal(err)
		}
		got, err := Key(m, sys, normalizedOpts(sys))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("pass %d: key drifted after a map round-trip: %s != %s", i, got, want)
		}
	}
}

// TestKeyGoldenShippedConfigs pins the canonical hash of every shipped
// model config against both shipped systems. These hex values are part of
// the on-disk cache contract: a change here silently orphans every store
// file in the field, so it must be a conscious decision (bump
// StrategySpaceVersion) — not an accident of reordering a struct field,
// renaming a JSON tag, or tweaking the encoder.
func TestKeyGoldenShippedConfigs(t *testing.T) {
	golden := map[string]string{
		"chinchilla-70B/a100-80g":        "d400ef7b739fa48a081cd86c729b0705eebec2809698d5d53d60c752c0d0ea9e",
		"chinchilla-70B/h100-80g-ddr512": "7e1825f87e5ad5bb9b10f1654b49d059134c42d0f13d2172cbcc6983b7054b96",
		"gpt2-1.5B/a100-80g":             "44cae5f0714b91c57876841232a6bf3047d99c3c1f937fbc490da922b3efa447",
		"gpt2-1.5B/h100-80g-ddr512":      "a42fbe5f33e3138c10c7e53ff4030459af4b286b85417246ce1a224525655353",
		"gpt3-13B/a100-80g":              "40f8b420e7918742a10db4f799948cb5ff53908be8d0f25176dc001404a9b779",
		"gpt3-13B/h100-80g-ddr512":       "523991bbf0e2dc1a302cbeba724cd2110b01dad6a74d462b2ca8f1b879a8bf70",
		"gpt3-175B/a100-80g":             "c75e6ccad69a804b2fdf51578a1a2c694b485b252688ce6c35978767bf35a61d",
		"gpt3-175B/h100-80g-ddr512":      "3854bd33cd5f97b71a0ce55bfa7fdedd295489850c3b7e8c81599db28552a131",
		"gpt3-6.7B/a100-80g":             "098ac0a0565eb5a812f655cf049bd771005cc4a08a8261f4f4b1910976b2271f",
		"gpt3-6.7B/h100-80g-ddr512":      "4e96e110cfd3ae192ed1e984ae843cdaafe63fe02c53ee5f4fd050de9a3ff995",
		"llama-65B/a100-80g":             "22b4c7d36c1ffa41fd03988e7a49d1bc3639af3f01500a285531cb67f0466236",
		"llama-65B/h100-80g-ddr512":      "7ce447c430de6f511205e69e79819e8cfcbd9bd6bfe3afafeefacebb6eb03fbd",
		"megatron-1T/a100-80g":           "0dfa11c1844bf2b74b0e000569dc94a049e6033a93af2c16828d9670a03fd4bb",
		"megatron-1T/h100-80g-ddr512":    "4e2c13c3a24d2481ebe3d598c3af24bcaf23de490599c589d154c8025fdf835a",
		"megatron-22B/a100-80g":          "3854a6c6c132b8f0a8b5eb9ce4a3758476772b25f38af23ad34ce67ba20d9be7",
		"megatron-22B/h100-80g-ddr512":   "0be1687615ce2322cb4f7cc67f9439bbe42f13607914dce849b4b6db197db40a",
		"palm-540B/a100-80g":             "db7428fe4cf2519c7e6bed41f5025c0ab8d0029a1236b63e5a7afe7373fef09f",
		"palm-540B/h100-80g-ddr512":      "2b35fe7185f438ebba2e5018817fdedf8b84ca75284316c6d2ff37f3c94764d7",
		"turing-530B/a100-80g":           "d5eef00924aeb7c85e938fe49668fe2ba3055e15a0dc3b47f3af3456248f3c00",
		"turing-530B/h100-80g-ddr512":    "8eaab918f7ea7cb0510d6b32e4d84467704931ae69cba95c740c276c4c582dad",
	}
	for _, mc := range []string{
		"chinchilla-70B", "gpt2-1.5B", "gpt3-13B", "gpt3-175B", "gpt3-6.7B",
		"llama-65B", "megatron-1T", "megatron-22B", "palm-540B", "turing-530B",
	} {
		m, err := config.Load[model.LLM]("../../configs/models/" + mc + ".json")
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range []string{"a100-80g", "h100-80g-ddr512"} {
			sys, err := config.Load[system.System]("../../configs/systems/" + sc + ".json")
			if err != nil {
				t.Fatal(err)
			}
			got, err := Key(m, sys, normalizedOpts(sys))
			if err != nil {
				t.Fatal(err)
			}
			name := mc + "/" + sc
			if want := golden[name]; got != want {
				t.Errorf("%s: key %s, want %s (a deliberate semantic change must bump StrategySpaceVersion instead)",
					name, got, want)
			}
		}
	}
}

// TestKeyNoCollisions hashes a corpus of single-field perturbations around
// a base search and requires every distinct input to land on a distinct
// key. This is the other half of the golden test: stability for identical
// inputs, separation for different ones — in particular that no
// result-affecting field was accidentally dropped from the payload.
func TestKeyNoCollisions(t *testing.T) {
	baseM := model.MustPreset("gpt3-13B")
	baseSys := system.A100(64)
	seen := make(map[string]string) // key -> description of the input

	add := func(desc string, m model.LLM, sys system.System, opts search.Options) {
		t.Helper()
		k, err := Key(m, sys, opts)
		if err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
		if prev, ok := seen[k]; ok {
			t.Fatalf("collision: %q and %q share key %s", prev, desc, k)
		}
		seen[k] = desc
	}

	add("base", baseM, baseSys, normalizedOpts(baseSys))
	for _, batch := range []int{8, 16, 512, 3072} {
		add(fmt.Sprintf("batch=%d", batch), baseM.WithBatch(batch), baseSys, normalizedOpts(baseSys))
	}
	for _, preset := range []string{"gpt2-1.5B", "megatron-22B", "chinchilla-70B", "turing-530B"} {
		add("model="+preset, model.MustPreset(preset), baseSys, normalizedOpts(baseSys))
	}
	perturbed := baseM
	perturbed.Seq *= 2
	add("seq*2", perturbed, baseSys, normalizedOpts(baseSys))

	for _, procs := range []int{8, 16, 128, 4096} {
		sys := system.A100(procs)
		add(fmt.Sprintf("procs=%d", procs), baseM, sys, normalizedOpts(sys))
	}
	shrunk := baseSys.WithMem1Capacity(baseSys.Mem1.Capacity / 2)
	add("mem1/2", baseM, shrunk, normalizedOpts(shrunk))
	withDDR := baseSys.WithMem2(system.DDR5(512 * units.GiB))
	add("mem2=ddr512", baseM, withDDR, normalizedOpts(withDDR))
	h100 := system.H100(64, 80*units.GiB, 512*units.GiB)
	add("h100", baseM, h100, normalizedOpts(h100))

	for _, f := range []execution.FeatureSet{execution.FeatureBaseline, execution.FeatureSeqPar} {
		o := normalizedOpts(baseSys)
		o.Enum.Features = f
		add("features="+string(f), baseM, baseSys, o)
	}
	for _, tp := range []int{4, 8, 32} {
		o := normalizedOpts(baseSys)
		o.Enum.MaxTP = tp
		add(fmt.Sprintf("maxtp=%d", tp), baseM, baseSys, o)
	}
	for _, il := range []int{1, 2, 4} {
		o := normalizedOpts(baseSys)
		o.Enum.MaxInterleave = il
		add(fmt.Sprintf("interleave=%d", il), baseM, baseSys, o)
	}
	{
		o := normalizedOpts(baseSys)
		o.Enum.PinBeneficial = true
		add("pin-beneficial", baseM, baseSys, o)
	}
	for _, k := range []int{2, 5, 10} {
		o := normalizedOpts(baseSys)
		o.TopK = k
		add(fmt.Sprintf("topk=%d", k), baseM, baseSys, o)
	}
	{
		o := normalizedOpts(baseSys)
		o.Pareto = true
		add("pareto", baseM, baseSys, o)
	}
	// Scheduling and observability knobs must NOT change the identity: a
	// sweep sharded across machines with different worker counts has to hit
	// the rows a single machine wrote.
	o := normalizedOpts(baseSys)
	o.Workers = 7
	o.Progress = &search.Progress{}
	k, err := Key(baseM, baseSys, o)
	if err != nil {
		t.Fatal(err)
	}
	if seen[k] != "base" {
		t.Fatalf("worker/progress knobs changed the key (landed on %q, want \"base\")", seen[k])
	}
}
