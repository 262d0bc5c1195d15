package serving

import (
	"cmp"
	"context"
	"math"
	"runtime"
	"sync"

	"calculon/internal/comm"
	"calculon/internal/inference"
	"calculon/internal/search"
	"calculon/internal/tco"
	"calculon/internal/units"
)

// Search runs the SLO-constrained serving co-design search and returns the
// Pareto frontier of deployments meeting the workload's latency objectives.
//
// The search is deterministic by construction, in two stages. Stage 1
// prices every engine configuration (tp, pp, batch, KV placement) in
// parallel under the worker budget, writing profiles into a dense array
// indexed by the enumeration sequence — worker count and scheduling cannot
// influence a single byte of what stage 2 sees. Stage 2 is serial closed
// form: it composes replica counts and disaggregation splits on top of the
// profiles, filters on the SLOs, prices $/Mtoken, and compacts the
// three-objective Pareto frontier with sequence-number tie-breaks. The
// randomized equivalence test pins byte-identical output across -workers 1
// and -workers N.
func Search(ctx context.Context, spec Spec, opts Options) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}

	var lookup func() (Result, bool)
	var save func(Result)
	if opts.Cache != nil && !opts.noPreScreen {
		lookup = func() (Result, bool) { return opts.Cache.Lookup(spec, opts) }
		save = func(res Result) { opts.Cache.Store(spec, opts, res) }
	}
	return search.Run(ctx, opts.observer(), lookup, save, func(prog *search.Progress) (Result, error) {
		cfgs := enumerate(spec.Model, spec.Space)
		if prog != nil {
			prog.AddTotal(int64(len(cfgs)))
		}
		pbar := spec.Workload.MeanPromptLen()
		gbar := spec.Workload.MeanGenLen()
		profiles, err := evalAll(ctx, &spec, opts, prog, cfgs, pbar, gbar)
		if err != nil {
			return Result{}, err
		}
		out := Result{Evaluated: len(cfgs)}
		for i := range profiles {
			if profiles[i].prescreened {
				out.PreScreened++
			}
		}
		if ctx.Err() != nil {
			// A cancelled stage 1 leaves an unpredictable prefix of the
			// profiles; composing a frontier from it would silently lie.
			return out, ctx.Err()
		}
		out.Frontier, out.Feasible = compose(&spec, cfgs, profiles, pbar, gbar)
		if len(out.Frontier) > 0 {
			out.Best = &out.Frontier[0]
		}
		if prog != nil {
			prog.AddCounts(search.Counts{Feasible: int64(out.Feasible)})
		}
		return out, ctx.Err()
	})
}

// evalAll is stage 1: the parallel engine-profile evaluation. Workers pull
// whole (tp, pp) groups of the enumeration — contiguous index spans — and
// write into the dense profiles array; after cancellation they keep
// draining so the producer's sends always complete. One Estimator per
// system serves every estimate of the search from shared memos.
func evalAll(ctx context.Context, spec *Spec, opts Options, prog *search.Progress, cfgs []engineConfig, pbar, gbar int) ([]engineProfile, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var screen *preScreen
	if !opts.noPreScreen {
		screen = newPreScreen(spec, pbar+gbar)
	}
	// Without a distinct prefill system both pools share one estimator, so
	// the prefill pool's passes reuse the decode pool's priced graphs.
	est := inference.NewEstimator(spec.Model, spec.System)
	estP := est
	if spec.PrefillSystem != nil {
		estP = inference.NewEstimator(spec.Model, *spec.PrefillSystem)
	}
	profiles := make([]engineProfile, len(cfgs))
	type span struct{ lo, hi int }
	spans := make(chan span, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range spans {
				if ctx.Err() != nil {
					continue
				}
				var delta search.Counts
				g := newGroupEval(spec, est, estP, cfgs[s.lo], pbar, gbar)
				for i := s.lo; i < s.hi; i++ {
					delta.Evaluated++
					if screen != nil {
						if err := screen.check(cfgs[i]); err != nil {
							profiles[i].prescreened = true
							delta.PreScreened++
							continue
						}
					}
					profiles[i] = g.eval(cfgs[i])
				}
				if prog != nil {
					prog.AddCounts(delta)
				}
			}
		}()
	}
produce:
	for lo := 0; lo < len(cfgs); {
		hi := lo + 1
		for hi < len(cfgs) && cfgs[hi].tp == cfgs[lo].tp && cfgs[hi].pp == cfgs[lo].pp {
			hi++
		}
		select {
		case <-ctx.Done():
			break produce
		case spans <- span{lo, hi}:
		}
		lo = hi
	}
	close(spans)
	wg.Wait()
	// Surface the lowest-sequence spec-level failure deterministically.
	for i := range profiles {
		if profiles[i].err != nil {
			return nil, profiles[i].err
		}
	}
	return profiles, nil
}

// compose is stage 2: serial closed-form composition of deployments from
// the engine profiles. For every feasible engine it enumerates colocated
// replica counts and (when enabled) disaggregated decode/prefill pool
// splits, keeps the SLO-feasible ones, and streams them through the Pareto
// compactor. Being serial over the deterministic profile order, its output
// is independent of stage 1's scheduling by construction.
func compose(spec *Spec, cfgs []engineConfig, profiles []engineProfile, pbar, gbar int) ([]Deployment, int) {
	// The unit price is validated by Spec.Validate, so ProcHour cannot fail.
	hourly, _ := tco.ProcHour(spec.Assumptions)
	slo := spec.Workload.SLO

	// One prompt's full-model KV cache crosses the scale-out network from
	// the prefill pool to a decode replica (disaggregated mode).
	kvShip := units.Bytes(2 * pbar * spec.Model.Hidden * 2).Times(float64(spec.Model.Blocks))
	so := spec.System.ScaleOut()
	kvT := comm.Time(&so, comm.P2P, 2, kvShip)

	fr := newFrontier()
	feasible := 0
	seq := 0
	for i := range profiles {
		p := &profiles[i]
		if !p.ok {
			continue
		}
		cfg := cfgs[i]
		engineProcs := cfg.tp * cfg.pp
		maxR := spec.Space.Procs / engineProcs
		if spec.Space.MaxReplicas > 0 && maxR > spec.Space.MaxReplicas {
			maxR = spec.Space.MaxReplicas
		}

		// Colocated continuous batching: the engine retires cfg.batch
		// sequences every ḡ steps and owes their prefill work in return;
		// chunked across the window, each decode step (on each stage)
		// carries 1/(ḡ·PP) of a full-batch prefill.
		tpot := p.est.StepTime + p.est.PrefillTime.DivN(float64(gbar))
		ttft := maxSec(p.prefill1) + tpot
		perStage := units.Seconds(float64(cfg.batch) / p.est.TokensPerSec)
		interf := p.est.PrefillTime.DivN(float64(gbar * cfg.pp))
		perReplica := (perStage + interf).Rate(float64(cfg.batch))
		for r := 1; r <= maxR; r++ {
			seq++
			if tpot > slo.TPOT || ttft > slo.TTFT {
				continue
			}
			feasible++
			procs := r * engineProcs
			cluster := float64(r) * perReplica
			fr.Push(Deployment{
				Seq: seq, TP: cfg.tp, PP: cfg.pp, Batch: cfg.batch, KVOffload: cfg.kvOffload,
				Replicas: r, Procs: procs,
				TTFT: ttft, TPOT: tpot,
				UserTokensPerSec:     tpot.Rate(1),
				ClusterTokensPerSec:  cluster,
				CostPerMToken:        costPerMToken(procs, cluster, hourly),
				DecodeBandwidthBound: p.est.DecodeBandwidthBound,
			})
		}

		if !spec.Space.Disaggregate {
			continue
		}
		// Disaggregated pools: decode replicas run pure decode (no prefill
		// interference), a separately-sized prefill pool keeps up with the
		// retirement rate, and each admitted request pays the KV shipment
		// on its TTFT path.
		tpotD := p.est.StepTime
		tputD := p.est.TokensPerSec
		ttftD := maxSec(p.prefillP1) + kvT + tpotD
		// Each decode replica retires tputD/ḡ requests per second; a
		// prefill replica completes one mean prompt per prefillPMean.
		reqRate := tputD / float64(gbar)
		for rd := 1; rd <= maxR; rd++ {
			rp := int(math.Ceil(p.prefillPMean.AtRate(float64(rd) * reqRate)))
			if rp < 1 {
				rp = 1
			}
			if spec.Space.MaxReplicas > 0 && rp > spec.Space.MaxReplicas {
				break
			}
			procs := rd*engineProcs + rp*engineProcs
			if procs > spec.Space.Procs {
				break
			}
			seq++
			if tpotD > slo.TPOT || ttftD > slo.TTFT {
				continue
			}
			feasible++
			cluster := float64(rd) * tputD
			fr.Push(Deployment{
				Seq: seq, TP: cfg.tp, PP: cfg.pp, Batch: cfg.batch, KVOffload: cfg.kvOffload,
				Disaggregated: true, Replicas: rd, PrefillReplicas: rp, Procs: procs,
				TTFT: ttftD, TPOT: tpotD, KVTransferTime: kvT,
				UserTokensPerSec:     tpotD.Rate(1),
				ClusterTokensPerSec:  cluster,
				CostPerMToken:        costPerMToken(procs, cluster, hourly),
				DecodeBandwidthBound: p.est.DecodeBandwidthBound,
			})
		}
	}
	return fr.Front(), feasible
}

// costPerMToken is tco.CostPerMToken with the hourly unit price hoisted out
// of the composition loop.
func costPerMToken(procs int, tokensPerSec, hourly float64) float64 {
	return float64(procs) * hourly / (tokensPerSec * 3_600) * 1e6
}

func maxSec(xs []units.Seconds) units.Seconds {
	var m units.Seconds
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// newFrontier returns the Pareto fold over (CostPerMToken ↓,
// UserTokensPerSec ↑, ClusterTokensPerSec ↑), cheapest first, then Seq.
func newFrontier() search.ParetoFold[Deployment] {
	return search.NewParetoFold(deploymentBefore, deploymentDominates)
}

func deploymentBefore(a, b *Deployment) int {
	return cmp.Or(cmp.Compare(a.CostPerMToken, b.CostPerMToken), cmp.Compare(b.UserTokensPerSec, a.UserTokensPerSec),
		cmp.Compare(b.ClusterTokensPerSec, a.ClusterTokensPerSec), cmp.Compare(a.Seq, b.Seq))
}

// deploymentDominates reports whether a is at least as good as b on every
// objective.
func deploymentDominates(a, b *Deployment) bool {
	return a.CostPerMToken <= b.CostPerMToken &&
		a.UserTokensPerSec >= b.UserTokensPerSec &&
		a.ClusterTokensPerSec >= b.ClusterTokensPerSec
}

// SizeResult is one point of the right-sizing sweep.
type SizeResult struct {
	// Procs is the cluster processor budget of this point.
	Procs int `json:"procs"`
	// Result is the full serving search at that budget.
	Result Result `json:"result"`
}

// Sweep is the serving right-sizing sweep: one Search per processor budget,
// scheduled by search.Sweep under the worker budget exactly as
// search.SystemSize schedules its sizes, so the aggregate never exceeds the
// budget. Each point is itself deterministic, so the sweep is too.
func Sweep(ctx context.Context, spec Spec, sizes []int, opts Options) ([]SizeResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return search.Sweep(ctx, len(sizes), opts.Workers, opts.observer(), func(i, workers int, prog *search.Progress) (SizeResult, error) {
		o := opts
		o.Workers, o.Progress, o.OnProgress = workers, prog, nil
		sp := spec
		sp.Space.Procs = sizes[i]
		res, err := Search(ctx, sp, o)
		return SizeResult{Procs: sizes[i], Result: res}, err
	})
}
