package serving

import (
	"errors"

	"calculon/internal/execution"
	"calculon/internal/inference"
	"calculon/internal/perf"
	"calculon/internal/units"
)

// engineProfile is everything stage 2 needs to compose deployments from one
// engine configuration: the steady-state estimate at the mean workload plus
// the per-bucket batch-1 prefill times that govern TTFT. Profiles land in a
// dense array indexed by the engine's sequence number, so the parallel
// evaluation order cannot influence anything downstream.
type engineProfile struct {
	// ok marks a feasible engine; prescreened marks one rejected by the
	// closed-form capacity bound without pricing.
	ok          bool
	prescreened bool
	// err carries a non-infeasibility failure (a spec-level bug); the
	// search aborts on the lowest-sequence one.
	err error
	// est is the steady-state estimate at the mean workload (mean prompt,
	// mean generation, full batch).
	est inference.Result
	// prefill1 is each bucket's batch-1 prefill time on the decode system —
	// the TTFT prefill term of a colocated deployment. It and prefillP1 are
	// shared, read-only, across the engines of one (tp, pp) group.
	prefill1 []units.Seconds
	// prefillP1 and prefillPMean are the prefill-pool equivalents on the
	// prefill system (disaggregated mode only): per-bucket batch-1 prefill
	// times, and the mean-prompt batch-1 prefill time that sizes the pool.
	prefillP1    []units.Seconds
	prefillPMean units.Seconds
}

// groupEval prices the engines of one (tp, pp) group of the enumeration —
// a contiguous run of batches and KV placements that one worker owns, so
// its lazily filled prefill sets need no lock. The batch-1 prefill times
// that govern TTFT depend on the group, the bucket and (on the decode pool)
// the KV placement, never on the engine's batch, so each set is priced once
// per group instead of once per engine.
type groupEval struct {
	spec       *Spec
	est, estP  *inference.Estimator // decode and prefill pool systems
	pbar, gbar int

	st    execution.Strategy
	procs int

	decode [2]*prefillSet // decode-pool prefills, by KV placement
	pool   *prefillSet    // prefill-pool prefills (disaggregated mode)
}

// prefillSet is a group's batch-1 prefill times over the workload mix, or
// the first error pricing them in bucket order.
type prefillSet struct {
	times []units.Seconds
	// mean is the mean-prompt prefill time (prefill pool only).
	mean units.Seconds
	err  error
}

func newGroupEval(spec *Spec, est, estP *inference.Estimator, cfg engineConfig, pbar, gbar int) *groupEval {
	// The engine occupies exactly tp·pp processors; the budget is a
	// cluster-level bound, so the per-replica estimate runs on a system of
	// the engine's own size.
	return &groupEval{
		spec: spec, est: est, estP: estP, pbar: pbar, gbar: gbar,
		st:    strategyFor(cfg.tp, cfg.pp),
		procs: cfg.tp * cfg.pp,
	}
}

// eval prices one engine configuration of the group. Infeasible engines
// (capacity, divisibility) come back with ok=false; any other estimation
// error is recorded for the search to surface. The mean estimate comes
// first: an engine that fails it never reaches its prefill sets.
func (g *groupEval) eval(cfg engineConfig) engineProfile {
	est, err := g.est.Estimate(g.procs, g.st, inference.Workload{
		PromptLen: g.pbar, GenLen: g.gbar, Batch: cfg.batch, KVOffload: cfg.kvOffload,
	})
	if err != nil {
		return profileErr(err)
	}
	p := engineProfile{est: est}

	d := g.decodePrefills(cfg.kvOffload)
	if d.err != nil {
		return profileErr(d.err)
	}
	p.prefill1 = d.times

	if g.spec.Space.Disaggregate {
		pool := g.poolPrefills()
		if pool.err != nil {
			return profileErr(pool.err)
		}
		p.prefillPMean, p.prefillP1 = pool.mean, pool.times
	}

	p.ok = true
	return p
}

// decodePrefills returns each bucket's batch-1 prefill time on the decode
// system — the TTFT prefill term of a colocated deployment.
func (g *groupEval) decodePrefills(kvOffload bool) *prefillSet {
	i := 0
	if kvOffload {
		i = 1
	}
	if g.decode[i] == nil {
		g.decode[i] = g.prefills(g.est, func(b Bucket) inference.Workload {
			return inference.Workload{PromptLen: b.PromptLen, GenLen: b.GenLen, Batch: 1, KVOffload: kvOffload}
		})
	}
	return g.decode[i]
}

// poolPrefills returns the prefill-pool equivalents on the prefill system:
// the mean-prompt batch-1 prefill time that sizes the pool, then the
// per-bucket batch-1 prefill times. Prefill replicas run prompt-only passes
// (GenLen 0) and never offload: they hold one prompt's KV, not a batch's
// steady state.
func (g *groupEval) poolPrefills() *prefillSet {
	if g.pool == nil {
		r, err := g.estP.Estimate(g.procs, g.st, inference.Workload{PromptLen: g.pbar, GenLen: 0, Batch: 1})
		if err != nil {
			g.pool = &prefillSet{err: err}
			return g.pool
		}
		g.pool = g.prefills(g.estP, func(b Bucket) inference.Workload {
			return inference.Workload{PromptLen: b.PromptLen, GenLen: 0, Batch: 1}
		})
		g.pool.mean = r.PrefillTime
	}
	return g.pool
}

// prefills prices each bucket's prefill time, stopping at the first error in
// bucket order.
func (g *groupEval) prefills(est *inference.Estimator, w func(Bucket) inference.Workload) *prefillSet {
	times := make([]units.Seconds, len(g.spec.Workload.Mix))
	for k, b := range g.spec.Workload.Mix {
		r, err := est.Estimate(g.procs, g.st, w(b))
		if err != nil {
			return &prefillSet{err: err}
		}
		times[k] = r.PrefillTime
	}
	return &prefillSet{times: times}
}

// profileErr folds an estimation error into a profile: infeasibility is a
// normal search outcome, anything else aborts.
func profileErr(err error) engineProfile {
	if errors.Is(err, perf.ErrInfeasible) {
		return engineProfile{}
	}
	return engineProfile{err: err}
}
