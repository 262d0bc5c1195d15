package service

import (
	"os"
	"path/filepath"
	"testing"

	"calculon/internal/config"
)

// validSpec is a minimal spec that prepare() accepts; the bad-spec cases
// below each break one field of it.
func validSpec() JobSpec {
	return JobSpec{
		Model:  config.ModelRef{Preset: "gpt3-13B", Batch: 8},
		System: config.SystemRef{Preset: "a100-80g", Procs: 8},
	}
}

// TestShippedJobSpecsPrepare keeps every example under configs/jobs/
// submittable: each file must pass the same decode and prepare() the daemon
// runs at POST /v1/jobs time.
func TestShippedJobSpecsPrepare(t *testing.T) {
	dir := filepath.Join("..", "..", "configs", "jobs")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read %s: %v", dir, err)
	}
	if len(entries) == 0 {
		t.Fatalf("no example job specs in %s", dir)
	}
	for _, e := range entries {
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		spec, err := decodeJobSpec(f)
		f.Close()
		if err != nil {
			t.Errorf("%s: decode: %v", e.Name(), err)
			continue
		}
		if _, err := spec.prepare(); err != nil {
			t.Errorf("%s: prepare: %v", e.Name(), err)
		}
	}
}

// badSpecs each break one field of validSpec.
func badSpecs() []struct {
	name string
	spec JobSpec
} {
	return []struct {
		name string
		spec JobSpec
	}{
		{"empty", JobSpec{}},
		{"unknown model preset", func() JobSpec {
			s := validSpec()
			s.Model.Preset = "no-such-model"
			return s
		}()},
		{"unknown system preset", func() JobSpec {
			s := validSpec()
			s.System.Preset = "no-such-system"
			return s
		}()},
		{"negative top_k", func() JobSpec {
			s := validSpec()
			s.Search.TopK = -1
			return s
		}()},
	}
}

func TestPrepareRejectsBadSpecs(t *testing.T) {
	for _, tc := range badSpecs() {
		if _, err := tc.spec.prepare(); err == nil {
			t.Errorf("%s: prepare accepted a bad spec", tc.name)
		}
	}
}
