package main

import (
	"sync"
	"time"

	"calculon/internal/comm"
	"calculon/internal/execution"
	"calculon/internal/inference"
	"calculon/internal/layers"
	"calculon/internal/model"
	"calculon/internal/perf"
	"calculon/internal/search"
	"calculon/internal/serving"
	"calculon/internal/system"
	"calculon/internal/units"
)

// layerMetrics names every per-module metric and its unit, in the order
// BENCHMARK.json lists them. A traced run reports each one on every
// workload; a module the workload does not reach reads 0.
var layerMetrics = [][2]string{
	{"execution.space_per_request", "count"},
	{"execution.prescreened_frac", "ratio"},
	{"execution.pruned_frac", "ratio"},
	{"execution.check_ns", "ns"},
	{"execution.check_triple_ns", "ns"},
	{"execution.enumerate_ns", "ns"},
	{"perf.priced_frac", "ratio"},
	{"perf.memo_hit_frac", "ratio"},
	{"perf.run_warm_ns", "ns"},
	{"perf.run_cold_us", "us"},
	{"layers.block_sum_us", "us"},
	{"system.eff_at_ns", "ns"},
	{"comm.time_ns", "ns"},
	{"search.call_ms", "ms"},
	{"inference.estimate_us", "us"},
	{"serving.call_ms", "ms"},
	{"serving.prescreened_frac", "ratio"},
	{"serving.frontier_len", "count"},
	{"resultstore.hit_frac", "ratio"},
	{"resultstore.key_us", "us"},
	{"resultstore.lookup_us", "us"},
	{"resultstore.append_flush_ms", "ms"},
	{"resultstore.appends", "count"},
	{"resultstore.flushes", "count"},
	{"service.submit_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.result_wait_ms", "ms"},
	{"service.overhead_ms", "ms"},
	{"runtime.allocs_per_request", "count"},
	{"runtime.alloc_kb_per_request", "KiB"},
	{"runtime.gc_cpu_frac", "ratio"},
}

const (
	// probeRequests is how many of the traced window's requests supply
	// inputs to the module timings.
	probeRequests = 8
	// probeLeaves caps the strategies enumerated per probe.
	probeLeaves = 4096
	// probeBudget is how long each module timing repeats its inputs.
	probeBudget = 150 * time.Millisecond
)

// probes keeps the inputs and results of a traced window's first requests
// for the module timings. Clients add to it concurrently.
type probes struct {
	mu    sync.Mutex
	train []trainRow
	serve []serveRow
}

// trainRow is one training search and its result.
type trainRow struct {
	q trainReq
	r search.Result
}

// serveRow is one serving search and its result.
type serveRow struct {
	spec serving.Spec
	r    serving.Result
}

func (p *probes) addTrain(q trainReq, r search.Result) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.train) < probeRequests {
		p.train = append(p.train, trainRow{q, r})
	}
}

func (p *probes) addServe(spec serving.Spec, r serving.Result) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.serve) < probeRequests {
		p.serve = append(p.serve, serveRow{spec, r})
	}
}

// servingStrategy is the engine strategy the serving search prices a
// replica with.
func servingStrategy(tp, pp int) execution.Strategy {
	return execution.Strategy{
		TP: tp, PP: pp, DP: 1, Microbatch: 1, Interleave: 1, OneFOneB: true,
		Recompute: execution.RecomputeNone, TPRSAG: true, Inference: true,
	}
}

// shardOf is the block shard a training strategy prices its layers on.
func shardOf(st execution.Strategy) layers.Shard {
	return layers.Shard{TP: st.TP, SeqParallel: st.SeqParallel, TPRedo: st.TPRedoForSP, Fused: st.FusedLayers, Microbatch: st.Microbatch, Inference: st.Inference}
}

// timer accumulates calls of one timed function across probes.
type timer struct {
	ns    int64
	calls int
}

// run calls f(k) for k in [0, n), repeating the pass until probeBudget
// has passed, and adds the time and calls.
func (t *timer) run(n int, f func(k int)) {
	if n == 0 {
		return
	}
	t0 := time.Now()
	for {
		for k := 0; k < n; k++ {
			f(k)
		}
		t.calls += n
		if time.Since(t0) >= probeBudget {
			break
		}
	}
	t.ns += time.Since(t0).Nanoseconds()
}

func (t *timer) per(unit time.Duration) float64 {
	if t.calls == 0 {
		return 0
	}
	return float64(t.ns) / float64(t.calls) / float64(unit)
}

// sink keeps timed results alive so the compiler cannot drop the calls.
var sink float64

// time times each module's public functions on the kept requests' inputs:
// the pre-screen, enumeration and memoized Runner.Run of the training
// searches; cold perf.Run, block building, efficiency-curve lookups and
// collective pricing of both kinds of request; and inference.Estimate of
// the serving frontiers. It gathers every call first and then times each
// function's calls as one batch.
func (p *probes) time(m metricSet) {
	p.mu.Lock()
	defer p.mu.Unlock()
	type screened struct {
		ps *execution.PreScreen
		st execution.Strategy
	}
	type tripleCall struct {
		ps   *execution.PreScreen
		enum execution.EnumOptions
		tpd  [3]int
	}
	type warmCall struct {
		r  *perf.Runner
		st execution.Strategy
	}
	type runCall struct {
		m   model.LLM
		sys system.System
		st  execution.Strategy
	}
	type blockCall struct {
		m  model.LLM
		sh layers.Shard
	}
	type estCall struct {
		run runCall
		w   inference.Workload
	}
	type effCall struct {
		curve system.EfficiencyCurve
		size  float64
	}
	type commCall struct {
		net    *system.Network
		op     comm.Op
		g      int
		tensor units.Bytes
	}
	var (
		checks    []screened
		triples   []tripleCall
		warms     []warmCall
		colds     []runCall
		blocks    []blockCall
		ests      []estCall
		effs      []effCall
		comms     []commCall
		enumerate timer
	)
	addOps := func(mod model.LLM, sys *system.System, st execution.Strategy) {
		for _, l := range layers.Block(mod, shardOf(st)) {
			c := sys.Compute.MatrixEff
			if l.Engine != layers.Matrix {
				c = sys.Compute.VectorEff
			}
			effs = append(effs, effCall{c, float64(l.FLOPs)})
		}
		act := layers.BlockInputBytes(mod, shardOf(st))
		comms = append(comms,
			commCall{sys.NetworkPtrFor(st.TP), comm.AllReduce, st.TP, act},
			commCall{sys.NetworkPtrFor(st.PP), comm.P2P, 2, act})
		if st.DP > 1 {
			w := layers.BlockWeightBytes(mod, st.TP).Times(float64(st.BlocksPerProc(mod)))
			comms = append(comms, commCall{sys.NetworkPtrFor(st.TP * st.DP), comm.ReduceScatter, st.DP, w})
		}
	}
	for _, row := range p.train {
		mod, sys, enum := row.q.m, row.q.sys, row.q.opts.Enum
		if enum.Procs == 0 {
			enum.Procs = sys.Procs
		}
		enum.HasMem2 = sys.Mem2.Present()
		ps := execution.NewPreScreen(mod, execution.Limits{Procs: sys.Procs, Mem1: sys.Mem1.Capacity, Mem2: sys.Mem2.Capacity})
		r, err := perf.NewRunner(mod, sys)
		if err != nil {
			continue
		}
		leaves := 0
		enum.Enumerate(mod, func(st execution.Strategy) bool {
			st = st.Normalize()
			checks = append(checks, screened{ps, st})
			if ps.Check(st) == nil {
				warms = append(warms, warmCall{r, st})
				_, _ = r.Run(st) // fills the memo, so the timed pass is warm
			}
			leaves++
			return leaves < probeLeaves
		})
		for _, tpd := range enum.Triples(mod) {
			triples = append(triples, tripleCall{ps, enum, tpd})
		}
		t0 := time.Now()
		enumerate.calls += enum.Enumerate(mod, func(execution.Strategy) bool { return true })
		enumerate.ns += time.Since(t0).Nanoseconds()
		for _, res := range row.r.Top {
			colds = append(colds, runCall{mod, sys, res.Strategy})
			blocks = append(blocks, blockCall{mod, shardOf(res.Strategy)})
			addOps(mod, &sys, res.Strategy)
		}
	}
	for _, row := range p.serve {
		sys := row.spec.System
		for _, d := range row.r.Frontier[:min(len(row.r.Frontier), probeRequests)] {
			st := servingStrategy(d.TP, d.PP)
			w := inference.Workload{PromptLen: row.spec.Workload.MeanPromptLen(), GenLen: row.spec.Workload.MeanGenLen(), Batch: d.Batch, KVOffload: d.KVOffload}
			ests = append(ests, estCall{runCall{row.spec.Model, sys, st}, w})
			// The prefill pass inference.Estimate prices through perf.Run,
			// and the decode block it builds.
			pm := row.spec.Model
			pm.Seq, pm.Batch = w.PromptLen, w.Batch
			colds = append(colds, runCall{pm, sys, st})
			blocks = append(blocks, blockCall{row.spec.Model, layers.Shard{TP: d.TP, Microbatch: 1, Inference: true}})
			addOps(pm, &sys, st)
		}
	}
	var check, triple, warm, cold, block, est, eff, coll timer
	check.run(len(checks), func(k int) {
		if checks[k].ps.Check(checks[k].st) != nil {
			sink++
		}
	})
	triple.run(len(triples), func(k int) {
		if t := triples[k]; t.ps.CheckTriple(t.enum, t.tpd) != nil {
			sink++
		}
	})
	warm.run(len(warms), func(k int) {
		res, _ := warms[k].r.Run(warms[k].st)
		sink += float64(res.BatchTime)
	})
	cold.run(len(colds), func(k int) {
		c := colds[k]
		res, _ := perf.Run(c.m, c.sys, c.st)
		sink += float64(res.BatchTime)
	})
	block.run(len(blocks), func(k int) {
		sink += float64(layers.Sum(layers.Block(blocks[k].m, blocks[k].sh)).FwdMatrixFLOPs)
	})
	est.run(len(ests), func(k int) {
		c := ests[k]
		r, _ := inference.Estimate(c.run.m, c.run.sys, c.run.st, c.w)
		sink += float64(r.PrefillTime)
	})
	eff.run(len(effs), func(k int) { sink += effs[k].curve.At(effs[k].size) })
	coll.run(len(comms), func(k int) {
		c := comms[k]
		sink += float64(comm.Time(c.net, c.op, c.g, c.tensor))
	})
	m.set("execution.check_ns", "ns", check.per(time.Nanosecond))
	m.set("execution.check_triple_ns", "ns", triple.per(time.Nanosecond))
	m.set("execution.enumerate_ns", "ns", enumerate.per(time.Nanosecond))
	m.set("perf.run_warm_ns", "ns", warm.per(time.Nanosecond))
	m.set("perf.run_cold_us", "us", cold.per(time.Microsecond))
	m.set("layers.block_sum_us", "us", block.per(time.Microsecond))
	m.set("system.eff_at_ns", "ns", eff.per(time.Nanosecond))
	m.set("comm.time_ns", "ns", coll.per(time.Nanosecond))
	m.set("inference.estimate_us", "us", est.per(time.Microsecond))
}
