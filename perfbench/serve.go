package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"time"

	"calculon/internal/model"
	"calculon/internal/serving"
	"calculon/internal/system"
)

// serve-search: SLO-constrained serving searches whose every engine is
// priced cold through inference.Estimate.
var (
	serveModels  = []string{"gpt3-13B", "megatron-22B", "llama-65B", "gpt3-175B"}
	serveProcs   = []int{16, 32, 64}
	servePrompts = []int{128, 256, 512, 1024, 2048, 4096}
	serveGens    = []int{32, 64, 128, 256, 512}
	// serveSystem has a second memory tier, so KV offload is a real option.
	serveSystem = "h100-80g-ddr512"
)

// serveSLO returns the tight or the loose latency target.
func serveSLO(tight bool) serving.SLO {
	if tight {
		return serving.SLO{TTFT: 2, TPOT: 0.04}
	}
	return serving.SLO{TTFT: 10, TPOT: 0.1}
}

// serveMix draws a mix of one to three (prompt, gen) buckets.
func serveMix(rng *rand.Rand) []serving.Bucket {
	mix := make([]serving.Bucket, 1+rng.IntN(3))
	for k := range mix {
		mix[k] = serving.Bucket{PromptLen: pick(rng, servePrompts), GenLen: pick(rng, serveGens), Weight: float64(1 + rng.IntN(4))}
	}
	return mix
}

type serveSearch struct {
	models map[string]model.LLM
	s      stream
	probes probes
}

// A class is a model and the three switches (tight SLO, disaggregation, KV
// offload); its variants are the cluster size, and the bucket mix is
// drawn per request.
const serveSwitches = 8

func (w *serveSearch) setup(seed uint64) error {
	var err error
	if w.models, err = presets(serveModels); err != nil {
		return err
	}
	w.s = stream{seed: seed, cells: len(serveModels) * serveSwitches, variants: len(serveProcs)}
	warm := serving.Spec{
		Model:    w.models["llama-65B"],
		System:   system.MustPreset(serveSystem, 32),
		Workload: serving.Workload{Mix: []serving.Bucket{{PromptLen: 1024, GenLen: 128, Weight: 1}}, SLO: serveSLO(false)},
		Space:    serving.Space{Procs: 32, Disaggregate: true, KVOffload: true},
	}
	_, err = serving.Search(context.Background(), warm, serving.Options{Workers: procs})
	return err
}

func (w *serveSearch) req(i int) serving.Spec {
	cell, v, rng := w.s.at(i)
	sw := cell % serveSwitches
	n := serveProcs[v]
	return serving.Spec{
		Model:    w.models[serveModels[cell/serveSwitches]],
		System:   system.MustPreset(serveSystem, n),
		Workload: serving.Workload{Mix: serveMix(rng), SLO: serveSLO(sw&1 != 0)},
		Space:    serving.Space{Procs: n, Disaggregate: sw&2 != 0, KVOffload: sw&4 != 0},
	}
}

func (w *serveSearch) clients() int { return 1 }

func (w *serveSearch) do(ctx context.Context, i int, tr *tracer) outcome {
	spec := w.req(i)
	_, end := tr.begin(i, 0, "serving.Search")
	t0 := time.Now()
	res, err := serving.Search(ctx, spec, serving.Options{Workers: procs})
	lat := time.Since(t0)
	end()
	if err == nil && tr != nil {
		w.probes.addServe(spec.Normalize(), res)
	}
	o := outcome{latency: lat, points: int64(res.Evaluated), err: err, stats: serveCountsOf(res)}
	return checked(o, i, func() error { return checkServing(spec.Normalize(), res) }, func() []byte {
		data, _ := json.Marshal(res)
		return data
	})
}

func (w *serveSearch) finish(n int) (string, error) {
	models := map[string]int{}
	procs := map[string]int{}
	var tight, dis, kv int
	for i := 0; i < n; i++ {
		s := w.req(i)
		models[s.Model.Name]++
		procs[fmt.Sprint(s.Space.Procs)]++
		if s.Workload.SLO == serveSLO(true) {
			tight++
		}
		if s.Space.Disaggregate {
			dis++
		}
		if s.Space.KVOffload {
			kv++
		}
	}
	return fmt.Sprintf("requests=%d models=%s procs=%s tight_slo=%d disaggregate=%d kv_offload=%d",
		n, countString(models), countString(procs), tight, dis, kv), nil
}

func (w *serveSearch) layers(m metricSet, outs []outcome, tr *tracer) {
	sumServeCounts(outs).report(m)
	m.set("serving.call_ms", "ms", tr.meanMS("serving.Search"))
	w.probes.time(m)
}

func (w *serveSearch) teardown() error { return nil }

// checkServing verifies a serving search's output: every frontier point
// meets both SLOs, no frontier point dominates another, and Best is the
// cheapest frontier point.
func checkServing(spec serving.Spec, r serving.Result) error {
	slo := spec.Workload.SLO
	f := r.Frontier
	for k := range f {
		if f[k].TTFT > slo.TTFT || f[k].TPOT > slo.TPOT {
			return fmt.Errorf("frontier point %d misses the SLO: ttft %v tpot %v", f[k].Seq, f[k].TTFT, f[k].TPOT)
		}
		for j := range f {
			if j != k && dominates(&f[j], &f[k]) {
				return fmt.Errorf("frontier point %d dominates point %d", f[j].Seq, f[k].Seq)
			}
		}
	}
	if r.Feasible < len(f) || r.PreScreened > r.Evaluated {
		return fmt.Errorf("counters out of order: feasible %d for %d frontier points, pre-screened %d of %d", r.Feasible, len(f), r.PreScreened, r.Evaluated)
	}
	if r.Best == nil {
		if len(f) > 0 {
			return fmt.Errorf("no best for a frontier of %d", len(f))
		}
		return nil
	}
	onFrontier := false
	for k := range f {
		if f[k].CostPerMToken < r.Best.CostPerMToken {
			return fmt.Errorf("frontier point %d is cheaper than best", f[k].Seq)
		}
		onFrontier = onFrontier || f[k] == *r.Best
	}
	if !onFrontier {
		return fmt.Errorf("best %d is not on the frontier", r.Best.Seq)
	}
	return nil
}

// dominates reports whether a is at least as good as b on every objective,
// the frontier's own dominance rule.
func dominates(a, b *serving.Deployment) bool {
	return a.CostPerMToken <= b.CostPerMToken &&
		a.UserTokensPerSec >= b.UserTokensPerSec &&
		a.ClusterTokensPerSec >= b.ClusterTokensPerSec
}

// serveCounts are one or more serving searches' counters.
type serveCounts struct{ evaluated, prescreened, frontier, n int }

func serveCountsOf(r serving.Result) serveCounts {
	return serveCounts{r.Evaluated, r.PreScreened, len(r.Frontier), 1}
}

func (c *serveCounts) add(o serveCounts) {
	c.evaluated += o.evaluated
	c.prescreened += o.prescreened
	c.frontier += o.frontier
	c.n += o.n
}

// sumServeCounts adds up the serving counters a window's outcomes carry.
func sumServeCounts(outs []outcome) serveCounts {
	var c serveCounts
	for _, o := range outs {
		if s, ok := o.stats.(serveCounts); ok {
			c.add(s)
		}
	}
	return c
}

func (c serveCounts) report(m metricSet) {
	m.set("serving.prescreened_frac", "ratio", float64(c.prescreened)/float64(c.evaluated))
	m.set("serving.frontier_len", "count", float64(c.frontier)/float64(max(c.n, 1)))
}
