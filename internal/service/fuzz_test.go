package service

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"calculon/internal/config"
	"calculon/internal/serving"
)

// FuzzJobSpec hammers the daemon's input path: the bytes of a POST /v1/jobs
// body go through decodeJobSpec and prepare, exactly as Submit runs them.
// Every input must produce an error or a prepared job, never a panic. The
// prepared run function is never called: a fuzzed spec can describe an
// arbitrarily large search.
func FuzzJobSpec(f *testing.F) {
	add := func(spec JobSpec) {
		b, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	add(validSpec())
	for _, tc := range badSpecs() {
		add(tc.spec)
	}
	// A serving job shaped like the benchmark driver's daemon workload.
	add(JobSpec{
		Model:  config.ModelRef{Preset: "gpt3-13B"},
		System: config.SystemRef{Preset: "h100-80g-ddr512", Procs: 16},
		Serving: &ServingJobSpec{
			Workload: serving.Workload{
				Mix: []serving.Bucket{{PromptLen: 512, GenLen: 128, Weight: 3}, {PromptLen: 2048, GenLen: 64, Weight: 1}},
				SLO: serving.SLO{TTFT: 10, TPOT: 0.1},
			},
			Space: serving.Space{Procs: 16, Disaggregate: true, KVOffload: true},
		},
	})
	shipped, err := filepath.Glob(filepath.Join("..", "..", "configs", "jobs", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range shipped {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"model":{"preset":"gpt3-13B","batch":-1},"system":{"preset":"a100-80g","procs":0}}`))
	f.Add([]byte(`{"model":{"inline":{}},"system":{"inline":{}},"search":{"timeout_seconds":1e309}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeJobSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		p, err := spec.prepare()
		if err == nil && p.run == nil {
			t.Fatalf("prepare accepted %q without a run function", data)
		}
	})
}
