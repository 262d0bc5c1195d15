package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"time"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/perf"
	"calculon/internal/search"
	"calculon/internal/system"
)

// stream deals a seeded request sequence in rounds. Round r holds each of
// cells input classes once, in a seeded order, and a class takes its
// variants in turn from a seeded starting point, so it repeats a variant
// only after it has used all of them. Any window of requests thus has
// nearly the same mix of classes and variants whatever the seed, which
// keeps runs with different seeds comparable, while request i is the same
// on every run with one seed. rng draws the request's remaining inputs.
type stream struct {
	seed, salt      uint64
	cells, variants int
}

func (s stream) at(i int) (cell, variant int, rng *rand.Rand) {
	r := i / s.cells
	cell = rand.New(rand.NewPCG(s.seed, s.salt<<32|uint64(r))).Perm(s.cells)[i%s.cells]
	start := rand.New(rand.NewPCG(s.seed^uint64(cell+1)<<40, s.salt)).IntN(s.variants)
	return cell, (start + r) % s.variants, rand.New(rand.NewPCG(s.seed^0x9e3779b97f4a7c15, s.salt<<32|uint64(i)))
}

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.IntN(len(xs))] }

// presets resolves model presets once per set-up.
func presets(names []string) (map[string]model.LLM, error) {
	out := map[string]model.LLM{}
	for _, n := range names {
		m, err := model.Preset(n)
		if err != nil {
			return nil, err
		}
		out[n] = m
	}
	return out, nil
}

// trainReq is one §5.1 execution search.
type trainReq struct {
	m    model.LLM
	sys  system.System
	opts search.Options
}

// train-search: mid-size models on 64–1024 A100s, all features, no store.
// A class is a (model, procs) pair; its variants are the batch and the
// interleave cap.
var (
	trainModels = []string{"gpt3-13B", "megatron-22B", "llama-65B", "chinchilla-70B", "gpt3-175B"}
	trainProcs  = []int{64, 128, 256, 512, 1024}
	trainBatch  = []int{128, 256, 512}
)

const trainInterleaves = 2

type trainSearch struct {
	models map[string]model.LLM
	s      stream
	probes probes
}

func (w *trainSearch) setup(seed uint64) error {
	var err error
	if w.models, err = presets(trainModels); err != nil {
		return err
	}
	w.s = stream{seed: seed, cells: len(trainModels) * len(trainProcs), variants: len(trainBatch) * trainInterleaves}
	// The warm-up request is fixed so set-up time does not vary by seed.
	_, err = search.Execution(context.Background(), w.models["gpt3-13B"].WithBatch(256), system.A100(256), trainOptions(256, 1))
	return err
}

func trainOptions(n, maxInterleave int) search.Options {
	return search.Options{
		Enum:    execution.EnumOptions{Procs: n, Features: execution.FeatureAll, MaxInterleave: maxInterleave},
		Workers: procs,
		TopK:    5,
	}
}

func (w *trainSearch) req(i int) trainReq {
	cell, v, _ := w.s.at(i)
	n := trainProcs[cell%len(trainProcs)]
	m := w.models[trainModels[cell/len(trainProcs)]].WithBatch(trainBatch[v/trainInterleaves])
	return trainReq{m: m, sys: system.A100(n), opts: trainOptions(n, 1+v%trainInterleaves)}
}

func (w *trainSearch) clients() int { return 1 }

func (w *trainSearch) do(ctx context.Context, i int, tr *tracer) outcome {
	q := w.req(i)
	_, end := tr.begin(i, 0, "search.Execution")
	t0 := time.Now()
	res, err := search.Execution(ctx, q.m, q.sys, q.opts)
	lat := time.Since(t0)
	end()
	if err == nil && tr != nil {
		w.probes.addTrain(q, res)
	}
	o := outcome{latency: lat, points: int64(res.Evaluated), err: err, stats: countsOf(res)}
	return checked(o, i, func() error { return checkExecution(q.m, q.sys, q.opts, res) }, func() []byte { return canonTrain(res) })
}

func (w *trainSearch) finish(n int) (string, error) {
	models := map[string]int{}
	minP, maxP := 1<<30, 0
	for i := 0; i < n; i++ {
		q := w.req(i)
		models[q.m.Name]++
		minP, maxP = min(minP, q.sys.Procs), max(maxP, q.sys.Procs)
	}
	return fmt.Sprintf("requests=%d models=%s procs=%d..%d", n, countString(models), minP, maxP), nil
}

func (w *trainSearch) layers(m metricSet, outs []outcome, tr *tracer) {
	sumCounts(outs).report(m, len(outs))
	m.set("search.call_ms", "ms", tr.meanMS("search.Execution"))
	w.probes.time(m)
}

func (w *trainSearch) teardown() error { return nil }

// size-sweep: capacity-limited models over size ranges that straddle the
// fit cliff (the smallest size at which the model fits at all). A class is
// a (model, size range) pair; its variants are the batch.
type sweepCell struct {
	model     string
	step, max int
}

var (
	sweepCells = []sweepCell{
		{"turing-530B", 16, 160}, {"turing-530B", 8, 128}, {"turing-530B", 16, 192},
		{"megatron-1T", 32, 320}, {"megatron-1T", 32, 384}, {"megatron-1T", 16, 256},
		{"palm-540B", 16, 176}, {"palm-540B", 8, 144}, {"palm-540B", 16, 192},
		{"gpt3-175B", 8, 64}, {"gpt3-175B", 8, 80}, {"gpt3-175B", 8, 96},
	}
	sweepBatch = []int{1536, 2048, 3072}
)

type sweepReq struct {
	m     model.LLM
	sizes []int
	opts  search.Options
}

type sizeSweep struct {
	models map[string]model.LLM
	s      stream
	probes probes
}

func sweepOptions() search.Options {
	return search.Options{
		Enum:    execution.EnumOptions{Features: execution.FeatureAll, PinBeneficial: true},
		Workers: procs,
	}
}

func (w *sizeSweep) setup(seed uint64) error {
	names := make([]string, 0, len(sweepCells))
	for _, c := range sweepCells {
		names = append(names, c.model)
	}
	var err error
	if w.models, err = presets(names); err != nil {
		return err
	}
	w.s = stream{seed: seed, cells: len(sweepCells), variants: len(sweepBatch)}
	_, err = search.SystemSize(context.Background(), w.models["turing-530B"].WithBatch(2048), system.A100, search.Sizes(16, 160), sweepOptions())
	return err
}

func (w *sizeSweep) req(i int) sweepReq {
	cell, v, _ := w.s.at(i)
	c := sweepCells[cell]
	return sweepReq{m: w.models[c.model].WithBatch(sweepBatch[v]), sizes: search.Sizes(c.step, c.max), opts: sweepOptions()}
}

func (w *sizeSweep) clients() int { return 1 }

func (w *sizeSweep) do(ctx context.Context, i int, tr *tracer) outcome {
	q := w.req(i)
	var prog search.Progress
	opts := q.opts
	opts.Progress = &prog
	_, end := tr.begin(i, 0, "search.SystemSize")
	t0 := time.Now()
	pts, err := search.SystemSize(ctx, q.m, system.A100, q.sizes, opts)
	lat := time.Since(t0)
	end()
	sn := prog.Snapshot()
	if err == nil && tr != nil {
		// Probe the largest size that fits: the sweep's most expensive
		// search, where the pruned and the priced paths both run.
		for k := len(pts) - 1; k >= 0; k-- {
			if p := pts[k]; p.Found {
				opts := q.opts
				opts.Enum.Procs = p.Procs
				w.probes.addTrain(trainReq{q.m, system.A100(p.Procs), opts}, search.Result{Best: p.Best, Top: []perf.Result{p.Best}})
				break
			}
		}
	}
	o := outcome{latency: lat, points: sn.Evaluated, err: err,
		stats: trainCounts{int(sn.Evaluated), int(sn.PreScreened), int(sn.SubtreePruned), int(sn.CacheHits)}}
	return checked(o, i, func() error { return checkSweep(q, pts, sn) }, func() []byte {
		data, _ := json.Marshal(struct {
			Evaluated, Feasible, PreScreened, SubtreePruned int64
			Points                                          []search.ScalingPoint
		}{sn.Evaluated, sn.Feasible, sn.PreScreened, sn.SubtreePruned, pts})
		return data
	})
}

// checkSweep verifies a sweep: one point per size, each found point
// re-prices bit-identically, and the aggregate counters account for
// exactly the strategy spaces of all sizes.
func checkSweep(q sweepReq, pts []search.ScalingPoint, sn search.ProgressSnapshot) error {
	if len(pts) != len(q.sizes) {
		return fmt.Errorf("sweep returned %d points for %d sizes", len(pts), len(q.sizes))
	}
	space, feasible := 0, 0
	for k, p := range pts {
		n := q.sizes[k]
		sys := system.A100(n)
		enum := q.opts.Enum
		enum.Procs, enum.HasMem2 = n, sys.Mem2.Present()
		space += enum.SpaceSize(q.m)
		feasible += p.Feasible
		if p.Procs != n || p.Found != (p.Feasible > 0) {
			return fmt.Errorf("size %d: point procs %d found %v feasible %d", n, p.Procs, p.Found, p.Feasible)
		}
		if p.Found {
			if err := reprice(q.m, sys, p.Best); err != nil {
				return fmt.Errorf("size %d: %w", n, err)
			}
		}
	}
	if sn.Evaluated != int64(space) {
		return fmt.Errorf("evaluated %d strategies, space holds %d", sn.Evaluated, space)
	}
	if sn.Feasible != int64(feasible) {
		return fmt.Errorf("progress counts %d feasible, points sum to %d", sn.Feasible, feasible)
	}
	if !(sn.SubtreePruned <= sn.PreScreened && sn.PreScreened <= sn.Evaluated-sn.Feasible) {
		return fmt.Errorf("counters out of order: pruned %d, pre-screened %d, infeasible %d", sn.SubtreePruned, sn.PreScreened, sn.Evaluated-sn.Feasible)
	}
	return nil
}

func (w *sizeSweep) finish(n int) (string, error) {
	models := map[string]int{}
	sizes := 0
	for i := 0; i < n; i++ {
		q := w.req(i)
		models[q.m.Name]++
		sizes += len(q.sizes)
	}
	return fmt.Sprintf("requests=%d models=%s sizes=%d (%.1f per sweep)", n, countString(models), sizes, float64(sizes)/float64(max(n, 1))), nil
}

func (w *sizeSweep) layers(m metricSet, outs []outcome, tr *tracer) {
	sumCounts(outs).report(m, len(outs))
	m.set("search.call_ms", "ms", tr.meanMS("search.SystemSize"))
	w.probes.time(m)
}

func (w *sizeSweep) teardown() error { return nil }

// checkExecution verifies one execution search's output: the counters
// account for exactly the strategy space, Best re-prices bit-identically
// through the direct path, and Top is sorted best first.
func checkExecution(m model.LLM, sys system.System, opts search.Options, r search.Result) error {
	enum := opts.Enum
	if enum.Procs == 0 {
		enum.Procs = sys.Procs
	}
	enum.HasMem2 = sys.Mem2.Present()
	if want := enum.SpaceSize(m); r.Evaluated != want {
		return fmt.Errorf("evaluated %d strategies, space holds %d", r.Evaluated, want)
	}
	if !(r.SubtreePruned <= r.PreScreened && r.PreScreened <= r.Evaluated-r.Feasible) {
		return fmt.Errorf("counters out of order: pruned %d, pre-screened %d, infeasible %d", r.SubtreePruned, r.PreScreened, r.Evaluated-r.Feasible)
	}
	if !r.Found() {
		return nil
	}
	if err := reprice(m, sys, r.Best); err != nil {
		return err
	}
	if len(r.Top) != min(opts.TopK, r.Feasible) {
		return fmt.Errorf("top holds %d results, want min(top_k %d, feasible %d)", len(r.Top), opts.TopK, r.Feasible)
	}
	for k := range r.Top {
		if k > 0 && r.Top[k].SampleRate > r.Top[k-1].SampleRate {
			return fmt.Errorf("top is not sorted at %d: %g after %g", k, r.Top[k].SampleRate, r.Top[k-1].SampleRate)
		}
	}
	if len(r.Top) > 0 && !sameJSON(r.Top[0], r.Best) {
		return fmt.Errorf("top[0] is not best")
	}
	return nil
}

// reprice evaluates best's strategy through the direct perf.Run path and
// demands the identical result.
func reprice(m model.LLM, sys system.System, best perf.Result) error {
	again, err := perf.Run(m, sys, best.Strategy)
	if err != nil {
		return fmt.Errorf("perf.Run rejects best %v: %w", best.Strategy, err)
	}
	if !sameJSON(again, best) {
		return fmt.Errorf("perf.Run re-prices best %v differently", best.Strategy)
	}
	return nil
}

func sameJSON(a, b any) bool {
	x, err1 := json.Marshal(a)
	y, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(x, y)
}

// canonTrain is a search result's canonical form. CacheHits is left out:
// it counts memo work, not the verdict.
func canonTrain(r search.Result) []byte {
	data, _ := json.Marshal(struct {
		Evaluated, Feasible, PreScreened, SubtreePruned int
		Best                                            perf.Result
		Top                                             []perf.Result
	}{r.Evaluated, r.Feasible, r.PreScreened, r.SubtreePruned, r.Best, r.Top})
	return data
}

// trainCounts are one or more training searches' counters.
type trainCounts struct{ evaluated, prescreened, pruned, cacheHits int }

func countsOf(r search.Result) trainCounts {
	return trainCounts{r.Evaluated, r.PreScreened, r.SubtreePruned, r.CacheHits}
}

func (c *trainCounts) add(o trainCounts) {
	c.evaluated += o.evaluated
	c.prescreened += o.prescreened
	c.pruned += o.pruned
	c.cacheHits += o.cacheHits
}

// sumCounts adds up the training counters a window's outcomes carry.
func sumCounts(outs []outcome) trainCounts {
	var c trainCounts
	for _, o := range outs {
		if t, ok := o.stats.(trainCounts); ok {
			c.add(t)
		}
	}
	return c
}

func (c trainCounts) report(m metricSet, requests int) {
	ev := float64(c.evaluated)
	priced := float64(c.evaluated - c.prescreened)
	m.set("execution.space_per_request", "count", ev/float64(max(requests, 1)))
	m.set("execution.prescreened_frac", "ratio", float64(c.prescreened)/ev)
	m.set("execution.pruned_frac", "ratio", float64(c.pruned)/ev)
	m.set("perf.priced_frac", "ratio", priced/ev)
	m.set("perf.memo_hit_frac", "ratio", float64(c.cacheHits)/priced)
}

func countString(counts map[string]int) string {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s:%d", k, counts[k])
	}
	return "{" + strings.Join(parts, ",") + "}"
}
