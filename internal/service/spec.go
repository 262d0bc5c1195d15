// Package service is the long-running face of the search engines: calculond
// wraps it around an HTTP listener. Clients POST a job spec (model + system
// + search options), get a job ID back, and poll status — live
// evaluated/feasible/pre-screened/subtree-pruned counters with an ETA,
// straight from the search's Progress attachment — until the result is
// ready. The pieces compose the repo's existing invariants: a bounded FIFO
// queue feeds a scheduler that partitions one global worker budget across
// concurrently running jobs (never oversubscribing it), every job runs under
// a cancellable context (DELETE cancels, drain cancels, a job timeout
// cancels), per-client rate limiting keeps one poller from starving the
// rest, and all cross-goroutine counters are sync/atomic only.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"calculon/internal/config"
	"calculon/internal/execution"
	"calculon/internal/resultstore"
	"calculon/internal/search"
	"calculon/internal/serving"
	"calculon/internal/tco"
)

// SearchSpec is the client-facing subset of search.Options: what to search,
// not how to schedule it (workers come from the daemon's budget, progress
// attachment from the job machinery).
type SearchSpec struct {
	// Features selects the optimization family: baseline|seqpar|all
	// (default all).
	Features string `json:"features,omitempty"`
	// MaxInterleave caps the pipeline-interleave factor (0 = unlimited).
	MaxInterleave int `json:"max_interleave,omitempty"`
	// TopK retains the best K configurations in the result (default 1).
	TopK int `json:"top_k,omitempty"`
	// Pareto retains the time-vs-memory Pareto front in the result.
	Pareto bool `json:"pareto,omitempty"`
	// TimeoutSeconds bounds the job's wall-clock run; 0 means no limit.
	// A timed-out job fails with a deadline error and partial counters.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
	// DisableStore bypasses the daemon's persistent result store for this
	// job: no cached verdict is served and the fresh one is not persisted.
	// The job's search runs with no cache attached. Results are identical
	// either way (the store serves bit-identical verdicts); the escape
	// hatch exists for A/B measurement and to force re-evaluation.
	DisableStore bool `json:"disable_store,omitempty"`
}

// ServingJobSpec is the serving-search job kind: the workload, the
// deployment space, and optionally a separate prefill-pool system and cost
// assumptions. A job carrying one runs serving.Search instead of the
// training-strategy search; the training-only Search fields must then stay
// empty (TimeoutSeconds and DisableStore still apply).
type ServingJobSpec struct {
	Workload serving.Workload `json:"workload"`
	Space    serving.Space    `json:"space"`
	// PrefillSystem, when present, is the system the disaggregated prefill
	// pool deploys on.
	PrefillSystem *config.SystemRef `json:"prefill_system,omitempty"`
	// Assumptions price the deployments; absent means tco.DefaultAssumptions.
	Assumptions *tco.Assumptions `json:"assumptions,omitempty"`
}

// JobSpec is the body of POST /v1/jobs: the same model/system references the
// CLI's scenario files use, plus the search options. A spec with a serving
// section is a serving co-design job; otherwise it is a training-strategy
// search.
type JobSpec struct {
	Model   config.ModelRef  `json:"model"`
	System  config.SystemRef `json:"system"`
	Search  SearchSpec       `json:"search"`
	Serving *ServingJobSpec  `json:"serving,omitempty"`
}

// decodeJobSpec reads one JSON job spec. Unknown fields are an error: a
// misspelled option would otherwise be dropped silently and the daemon would
// run a different search from the one the client asked for.
func decodeJobSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// prepared is a resolved, validated job spec ready to run.
type prepared struct {
	// run runs the resolved search on the job's worker share, flushing
	// counters into prog and consulting store when it is non-nil. It returns
	// the job's wire result, which keeps the partial counters when the
	// search fails or is cancelled; the caller fills in the lifecycle fields.
	run     func(ctx context.Context, workers int, prog *search.Progress, store *resultstore.Store) (JobResult, error)
	timeout time.Duration
}

// prepare resolves the references and validates everything client-supplied,
// so a bad spec is rejected at submit time (400) rather than failing the job
// after it queued.
func (s JobSpec) prepare() (prepared, error) {
	if s.Search.TimeoutSeconds < 0 {
		return prepared{}, fmt.Errorf("service: negative timeout_seconds %g", s.Search.TimeoutSeconds)
	}
	p := prepared{timeout: time.Duration(s.Search.TimeoutSeconds * float64(time.Second))}
	if s.Serving != nil {
		return s.prepareServing(p)
	}
	m, err := s.Model.Resolve()
	if err != nil {
		return p, err
	}
	sys, err := s.System.Resolve()
	if err != nil {
		return p, err
	}
	features := execution.FeatureSet(s.Search.Features)
	if features == "" {
		features = execution.FeatureAll
	}
	if !features.Valid() {
		return p, fmt.Errorf("service: unknown feature set %q (want baseline|seqpar|all)", s.Search.Features)
	}
	if s.Search.MaxInterleave < 0 {
		return p, fmt.Errorf("service: negative max_interleave %d", s.Search.MaxInterleave)
	}
	topK := s.Search.TopK
	switch {
	case topK < 0:
		return p, fmt.Errorf("service: negative top_k %d", topK)
	case topK == 0:
		topK = 1
	}
	opts := search.Options{
		Enum: execution.EnumOptions{
			Features:      features,
			MaxInterleave: s.Search.MaxInterleave,
		},
		TopK:   topK,
		Pareto: s.Search.Pareto,
	}
	p.run = func(ctx context.Context, workers int, prog *search.Progress, store *resultstore.Store) (JobResult, error) {
		opts := opts
		opts.Workers = workers
		opts.Progress = prog
		if store != nil && !s.Search.DisableStore {
			// A typed-nil *Store behind the interface would defeat the nil
			// check inside Execution, hence the explicit guard.
			opts.Cache = store
		}
		res, err := search.Execution(ctx, m, sys, opts)
		out := JobResult{
			Evaluated:     res.Evaluated,
			Feasible:      res.Feasible,
			PreScreened:   res.PreScreened,
			SubtreePruned: res.SubtreePruned,
			CacheHits:     res.CacheHits,
			Found:         res.Found(),
		}
		if res.Found() {
			out.Best = &res.Best
			out.Top = res.Top
			out.Pareto = res.Pareto
		}
		return out, err
	}
	return p, nil
}

// prepareServing resolves a serving job, reusing the scenario-file resolver
// so the HTTP spec and configs/scenarios/serving-*.json accept the same
// shapes and reject the same mistakes.
func (s JobSpec) prepareServing(p prepared) (prepared, error) {
	if s.Search.Features != "" || s.Search.MaxInterleave != 0 || s.Search.TopK != 0 || s.Search.Pareto {
		return p, fmt.Errorf("service: a serving job takes no training search options (features/max_interleave/top_k/pareto)")
	}
	sc := config.ServingScenario{
		Model:         s.Model,
		System:        s.System,
		PrefillSystem: s.Serving.PrefillSystem,
		Workload:      s.Serving.Workload,
		Space:         s.Serving.Space,
		Assumptions:   s.Serving.Assumptions,
	}
	spec, err := sc.Resolve()
	if err != nil {
		return p, err
	}
	p.run = func(ctx context.Context, workers int, prog *search.Progress, store *resultstore.Store) (JobResult, error) {
		opts := serving.Options{Workers: workers, Progress: prog}
		if store != nil && !s.Search.DisableStore {
			opts.Cache = store.ServingCache()
		}
		res, err := serving.Search(ctx, spec, opts)
		return JobResult{
			Evaluated:   res.Evaluated,
			Feasible:    res.Feasible,
			PreScreened: res.PreScreened,
			Found:       res.Best != nil,
			Serving:     &res,
		}, err
	}
	return p, nil
}
