package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"calculon/internal/config"
	"calculon/internal/execution"
	"calculon/internal/resultstore"
	"calculon/internal/search"
	"calculon/internal/service"
	"calculon/internal/serving"
)

// daemon-jobs: two clients POST job specs to an in-process calculond with a
// result store and long-poll each result. Requests come in blocks of
// jobBlock: one fresh training job, one fresh serving job (each a cold
// search followed by an append and a flush) and store hits on specs
// pre-seeded during set-up. The seed fixes which request is which, so the
// hit share does not depend on client timing.
//
// Fresh training jobs are dealt by class (model, procs) with batch and
// top_k as variants; fresh serving jobs by class (model, switches) with
// procs and bucket mix as variants. Every fresh spec is used once. The
// pre-seeded specs differ from every fresh one: training hits search the
// seqpar feature set (fresh jobs: all) and serving hits cap the batch at
// 16 (fresh jobs take the default).
var (
	jobTrainModels = []string{"gpt3-13B", "megatron-22B", "llama-65B", "gpt3-175B"}
	jobTrainProcs  = []int{64, 128, 256, 512}
	jobTrainBatch  = []int{64, 128, 256}
	jobServeModels = []string{"gpt3-13B", "llama-65B", "gpt3-175B"}
)

const (
	// jobTopKs multiplies the fresh training specs: top_k changes the store
	// key but hardly the search cost.
	jobTopKs = 24
	// jobMixes is how many seeded bucket mixes serving specs choose from.
	jobMixes = 16
	// jobBlock requests hold one fresh training job, one fresh serving job
	// and jobBlock-2 store hits.
	jobBlock = 6
	// hitsPerKind is the number of pre-seeded specs of each kind.
	hitsPerKind = 6
)

type jobReq struct {
	// hit is the pre-seeded spec's index, or -1 for a fresh job.
	hit  int
	spec service.JobSpec
}

// jobStats is what a run keeps of one job for the per-module metrics.
type jobStats struct {
	hit         bool
	train       trainCounts
	serve       serveCounts
	queue, exec time.Duration
	timed       bool
}

type daemonJobs struct {
	dir   string
	s     stream // request kinds within each block
	train stream // fresh training specs
	serve stream // fresh serving specs
	mixes [][]serving.Bucket
	hits  [2 * hitsPerKind]service.JobSpec
	// expect is the SHA-256 of each pre-seeded spec's canonical verdict.
	expect [2 * hitsPerKind][sha256.Size]byte

	store  *resultstore.Store
	svc    *service.Server
	srv    *httptest.Server
	client *http.Client
	base   resultstore.Stats
	// probes keeps the traced window's first fresh jobs.
	probes probes
}

func (w *daemonJobs) setup(seed uint64) error {
	rng := rand.New(rand.NewPCG(seed, 0xda))
	w.s = stream{seed: seed, salt: 1, cells: jobBlock, variants: 1}
	w.train = stream{seed: seed, salt: 2, cells: len(jobTrainModels) * len(jobTrainProcs), variants: len(jobTrainBatch) * jobTopKs}
	w.serve = stream{seed: seed, salt: 3, cells: len(jobServeModels) * serveSwitches, variants: len(serveProcs) * jobMixes}
	// The mixes must differ, or two fresh serving specs could share a key.
	w.mixes = w.mixes[:0]
	seen := map[string]bool{}
	for len(w.mixes) < jobMixes {
		mix := serveMix(rng)
		if k := fmt.Sprint(mix); !seen[k] {
			seen[k] = true
			w.mixes = append(w.mixes, mix)
		}
	}
	for h, c := range rng.Perm(w.train.cells)[:hitsPerKind] {
		spec := w.trainSpec(c, 4*len(jobTrainBatch)+rng.IntN(len(jobTrainBatch)))
		spec.Search.Features = string(execution.FeatureSeqPar)
		w.hits[h] = spec
	}
	for h, c := range rng.Perm(w.serve.cells)[:hitsPerKind] {
		spec := w.serveSpec(c, rng.IntN(w.serve.variants))
		spec.Serving.Space.MaxBatch = 16
		w.hits[hitsPerKind+h] = spec
	}

	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return err
	}
	var err error
	if w.store, err = resultstore.Open(filepath.Join(w.dir, "store.jsonl")); err != nil {
		return err
	}
	// Every fresh verdict is appended and flushed before its job finishes.
	w.store.SetBatchSize(1)
	w.svc = service.New(service.Config{Workers: procs, MaxRunning: 2, QueueDepth: 64, MaxWait: requestTimeout, Store: w.store})
	w.srv = httptest.NewServer(w.svc.Handler())
	w.client = w.srv.Client()
	w.client.Timeout = requestTimeout
	ctx := context.Background()
	for h, spec := range w.hits {
		jr, err := w.job(ctx, spec, nil, 0, 0)
		if err != nil {
			return fmt.Errorf("pre-seeding spec %d: %w", h, err)
		}
		w.expect[h] = sha256.Sum256(canonJob(jr))
	}
	// The warm-up request is a store hit on the first pre-seeded spec.
	jr, err := w.job(ctx, w.hits[0], nil, 0, 0)
	if err != nil {
		return err
	}
	if sha256.Sum256(canonJob(jr)) != w.expect[0] {
		return fmt.Errorf("warm-up store hit differs from its pre-seeded verdict")
	}
	w.base = w.store.Stats()
	return nil
}

func (w *daemonJobs) teardown() error {
	if w.srv != nil {
		w.srv.Close()
	}
	if w.svc != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		w.svc.Drain(ctx)
		cancel()
	}
	var err error
	if w.store != nil {
		err = w.store.Close()
	}
	if rmErr := os.RemoveAll(w.dir); err == nil {
		err = rmErr
	}
	return err
}

// trainSpec is the training job of class c (model, procs) and variant v
// (batch, top_k). The batch, which sets the cost, varies fastest, so
// consecutive variants of a class cycle through it.
func (w *daemonJobs) trainSpec(c, v int) service.JobSpec {
	return service.JobSpec{
		Model:  config.ModelRef{Preset: jobTrainModels[c/len(jobTrainProcs)], Batch: jobTrainBatch[v%len(jobTrainBatch)]},
		System: config.SystemRef{Preset: "a100-80g", Procs: jobTrainProcs[c%len(jobTrainProcs)]},
		Search: service.SearchSpec{Features: string(execution.FeatureAll), MaxInterleave: 1, TopK: 1 + v/len(jobTrainBatch)},
	}
}

// serveSpec is the serving job of class c (model, switches) and variant v
// (procs, mix), the procs varying fastest.
func (w *daemonJobs) serveSpec(c, v int) service.JobSpec {
	sw := c % serveSwitches
	n := serveProcs[v%len(serveProcs)]
	return service.JobSpec{
		Model:  config.ModelRef{Preset: jobServeModels[c/serveSwitches]},
		System: config.SystemRef{Preset: serveSystem, Procs: n},
		Serving: &service.ServingJobSpec{
			Workload: serving.Workload{Mix: w.mixes[v/len(serveProcs)], SLO: serveSLO(sw&1 != 0)},
			Space:    serving.Space{Procs: n, Disaggregate: sw&2 != 0, KVOffload: sw&4 != 0},
		},
	}
}

// fresh is the j-th fresh spec of stream s. A class repeats a variant only
// after using all of them, so the specs stay distinct while j is below
// cells × variants.
func fresh(s stream, j int, spec func(c, v int) service.JobSpec) (service.JobSpec, error) {
	if j >= s.cells*s.variants {
		return service.JobSpec{}, fmt.Errorf("fresh spec space of %d exhausted", s.cells*s.variants)
	}
	c, v, _ := s.at(j)
	return spec(c, v), nil
}

// req is request i: block i/jobBlock's seeded order puts its fresh
// training job and its fresh serving job at two positions and store hits
// at the rest.
func (w *daemonJobs) req(i int) (jobReq, error) {
	kind, _, rng := w.s.at(i)
	var spec service.JobSpec
	var err error
	switch kind {
	case 0:
		spec, err = fresh(w.train, i/jobBlock, w.trainSpec)
	case 1:
		spec, err = fresh(w.serve, i/jobBlock, w.serveSpec)
	default:
		h := rng.IntN(len(w.hits))
		return jobReq{hit: h, spec: w.hits[h]}, nil
	}
	return jobReq{hit: -1, spec: spec}, err
}

func (w *daemonJobs) clients() int { return 2 }

func (w *daemonJobs) do(ctx context.Context, i int, tr *tracer) outcome {
	q, err := w.req(i)
	if err != nil {
		return outcome{err: err}
	}
	root, end := tr.begin(i, 0, "request")
	t0 := time.Now()
	jr, err := w.job(ctx, q.spec, tr, i, root)
	lat := time.Since(t0)
	end()
	st := jobStats{hit: q.hit >= 0}
	if err == nil && tr != nil {
		var status service.JobStatus
		_, endStatus := tr.begin(i, root, "GET /v1/jobs/{id}")
		err = w.call(ctx, http.MethodGet, "/v1/jobs/"+jr.ID, nil, http.StatusOK, &status)
		endStatus()
		if status.Started != nil && status.Finished != nil {
			st.queue, st.exec, st.timed = status.Started.Sub(status.Created), status.Finished.Sub(*status.Started), true
		}
	}
	var pts int64
	switch {
	case q.hit >= 0:
	case jr.Serving != nil:
		pts = int64(jr.Evaluated)
		st.serve = serveCountsOf(*jr.Serving)
	default:
		pts = int64(jr.Evaluated)
		st.train = countsOf(searchResult(jr))
	}
	if err == nil && tr != nil && q.hit < 0 {
		w.keep(q.spec, jr)
	}
	o := outcome{latency: lat, points: pts, err: err, stats: st}
	return checked(o, i, func() error { return w.check(q, jr) }, func() []byte { return canonJob(jr) })
}

// job submits spec and long-polls its result, recording spans under the
// request's root span when traced.
func (w *daemonJobs) job(ctx context.Context, spec service.JobSpec, tr *tracer, req, parent int) (service.JobResult, error) {
	var jr service.JobResult
	body, err := json.Marshal(spec)
	if err != nil {
		return jr, err
	}
	var st service.JobStatus
	_, end := tr.begin(req, parent, "POST /v1/jobs")
	err = w.call(ctx, http.MethodPost, "/v1/jobs", body, http.StatusAccepted, &st)
	end()
	if err != nil {
		return jr, err
	}
	_, end = tr.begin(req, parent, "GET /v1/jobs/{id}/result")
	err = w.call(ctx, http.MethodGet, "/v1/jobs/"+st.ID+"/result?wait="+requestTimeout.String(), nil, http.StatusOK, &jr)
	end()
	if err == nil && (jr.State != service.StateDone || jr.Error != "") {
		err = fmt.Errorf("job %s ended %s: %s", jr.ID, jr.State, jr.Error)
	}
	return jr, err
}

func (w *daemonJobs) call(ctx context.Context, method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, w.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// canonJob is a job result's canonical form: everything but the job ID.
func canonJob(jr service.JobResult) []byte {
	jr.ID = ""
	data, _ := json.Marshal(jr)
	return data
}

// resolveTrain resolves a training job spec the way the daemon does.
func resolveTrain(spec service.JobSpec) (trainReq, error) {
	m, err := spec.Model.Resolve()
	if err != nil {
		return trainReq{}, err
	}
	sys, err := spec.System.Resolve()
	if err != nil {
		return trainReq{}, err
	}
	opts := search.Options{
		Enum: execution.EnumOptions{Procs: sys.Procs, Features: execution.FeatureSet(spec.Search.Features), MaxInterleave: spec.Search.MaxInterleave, HasMem2: sys.Mem2.Present()},
		TopK: spec.Search.TopK,
	}
	return trainReq{m: m, sys: sys, opts: opts}, nil
}

// resolveServe resolves a serving job spec the way the daemon does.
func resolveServe(spec service.JobSpec) (serving.Spec, error) {
	s, err := config.ServingScenario{Model: spec.Model, System: spec.System, Workload: spec.Serving.Workload, Space: spec.Serving.Space}.Resolve()
	return s.Normalize(), err
}

// searchResult is the search.Result a training job's wire result carries.
func searchResult(jr service.JobResult) search.Result {
	r := search.Result{Evaluated: jr.Evaluated, Feasible: jr.Feasible, PreScreened: jr.PreScreened, SubtreePruned: jr.SubtreePruned, CacheHits: jr.CacheHits, Top: jr.Top, Pareto: jr.Pareto}
	if jr.Best != nil {
		r.Best = *jr.Best
	}
	return r
}

// check verifies a job's result: a store hit must equal its pre-seeded
// verdict, and a fresh job must pass its engine's checks.
func (w *daemonJobs) check(q jobReq, jr service.JobResult) error {
	switch {
	case q.hit >= 0:
		if sha256.Sum256(canonJob(jr)) != w.expect[q.hit] {
			return fmt.Errorf("store hit on spec %d differs from its pre-seeded verdict", q.hit)
		}
		return nil
	case q.spec.Serving != nil:
		spec, err := resolveServe(q.spec)
		if err != nil {
			return err
		}
		if jr.Serving == nil {
			return fmt.Errorf("serving job returned no serving result")
		}
		return checkServing(spec, *jr.Serving)
	default:
		t, err := resolveTrain(q.spec)
		if err != nil {
			return err
		}
		return checkExecution(t.m, t.sys, t.opts, searchResult(jr))
	}
}

// finish checks that the store saw exactly the seeded reads and writes:
// one hit per planned hit, and one miss, append and flush per fresh job.
func (w *daemonJobs) finish(n int) (string, error) {
	hits := 0
	models := map[string]int{}
	for i := 0; i < n; i++ {
		q, err := w.req(i)
		if err != nil {
			return fmt.Sprintf("requests=%d", n), err
		}
		if q.hit >= 0 {
			hits++
		}
		models[q.spec.Model.Preset]++
	}
	fresh := int64(n - hits)
	mix := fmt.Sprintf("requests=%d store_hits=%d (share %.4f) fresh_jobs=%d models=%s", n, hits, float64(hits)/float64(max(n, 1)), fresh, countString(models))
	d := w.storeDelta()
	if d.Hits != int64(hits) || d.Misses != fresh || d.Appends != fresh || d.Flushes != fresh {
		return mix, fmt.Errorf("store saw %d hits, %d misses, %d appends, %d flushes; the seed planned %d hits and %d fresh jobs",
			d.Hits, d.Misses, d.Appends, d.Flushes, hits, fresh)
	}
	return mix, nil
}

// storeDelta is the daemon store's activity since set-up ended.
func (w *daemonJobs) storeDelta() resultstore.Stats {
	s := w.store.Stats()
	return resultstore.Stats{Hits: s.Hits - w.base.Hits, Misses: s.Misses - w.base.Misses, Appends: s.Appends - w.base.Appends, Flushes: s.Flushes - w.base.Flushes}
}

func (w *daemonJobs) layers(m metricSet, outs []outcome, tr *tracer) {
	d := w.storeDelta()
	m.set("resultstore.hit_frac", "ratio", float64(d.Hits)/float64(d.Hits+d.Misses))
	m.set("resultstore.appends", "count", float64(d.Appends))
	m.set("resultstore.flushes", "count", float64(d.Flushes))

	var tc trainCounts
	var sc serveCounts
	var queue, exec, overhead []float64
	freshTrain := 0
	for _, o := range outs {
		st, ok := o.stats.(jobStats)
		if !ok || o.err != nil {
			continue
		}
		if st.timed {
			queue = append(queue, ms(st.queue))
			exec = append(exec, ms(st.exec))
			overhead = append(overhead, ms(o.latency-st.queue-st.exec))
		}
		switch {
		case st.hit:
		case st.serve.n > 0:
			sc.add(st.serve)
		default:
			freshTrain++
			tc.add(st.train)
		}
	}
	tc.report(m, freshTrain)
	sc.report(m)
	m.set("service.submit_ms", "ms", tr.meanMS("POST /v1/jobs"))
	m.set("service.result_wait_ms", "ms", tr.meanMS("GET /v1/jobs/{id}/result"))
	m.set("service.queue_wait_ms", "ms", mean(queue))
	m.set("service.run_ms", "ms", mean(exec))
	m.set("service.overhead_ms", "ms", mean(overhead))
	w.probes.timeStore(m, filepath.Join(w.dir, "probe.jsonl"))
	w.probes.time(m)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// keep resolves a fresh job and keeps it for the module timings.
func (w *daemonJobs) keep(spec service.JobSpec, jr service.JobResult) {
	if spec.Serving != nil {
		if s, err := resolveServe(spec); err == nil && jr.Serving != nil {
			w.probes.addServe(s, *jr.Serving)
		}
		return
	}
	if t, err := resolveTrain(spec); err == nil {
		w.probes.addTrain(t, searchResult(jr))
	}
}

// timeStore measures key derivation, append+flush and lookup of the kept
// fresh jobs on a probe store of its own, so the daemon store's counters
// stay the daemon's.
func (p *probes) timeStore(m metricSet, path string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	probe, err := resultstore.Open(path)
	if err != nil {
		return
	}
	defer probe.Close()
	nt, n := len(p.train), len(p.train)+len(p.serve)
	var key, appendFlush, lookup timer
	key.run(n, func(k int) {
		if k < nt {
			_, _ = resultstore.Key(p.train[k].q.m, p.train[k].q.sys, p.train[k].q.opts)
			return
		}
		_, _ = resultstore.ServingKey(p.serve[k-nt].spec, serving.Options{})
	})
	t0 := time.Now()
	for k := 0; k < n; k++ {
		var row resultstore.Row
		if k < nt {
			t := p.train[k]
			key, err := resultstore.Key(t.q.m, t.q.sys, t.q.opts)
			if err != nil {
				continue
			}
			row = resultstore.NewRow(key, t.q.m, t.q.sys, t.r)
		} else {
			s := p.serve[k-nt]
			key, err := resultstore.ServingKey(s.spec, serving.Options{})
			if err != nil {
				continue
			}
			row = resultstore.NewServingRow(key, s.spec, s.r)
		}
		if probe.Append(row) == nil && probe.Flush() == nil {
			appendFlush.calls++
		}
	}
	appendFlush.ns = time.Since(t0).Nanoseconds()
	cache := probe.ServingCache()
	lookup.run(n, func(k int) {
		if k < nt {
			_, _ = probe.Lookup(p.train[k].q.m, p.train[k].q.sys, p.train[k].q.opts)
			return
		}
		_, _ = cache.Lookup(p.serve[k-nt].spec, serving.Options{})
	})
	m.set("resultstore.key_us", "us", key.per(time.Microsecond))
	m.set("resultstore.append_flush_ms", "ms", appendFlush.per(time.Millisecond))
	m.set("resultstore.lookup_us", "us", lookup.per(time.Microsecond))
}
