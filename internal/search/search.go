// Package search implements the paper's three search engines: the optimal
// execution search of §5.1 (exhaustively try every execution strategy for a
// fixed LLM and system), the optimal system-size sweep of §5.2 (repeat the
// execution search at every processor count to expose "efficiency cliffs"),
// and the statistics — histograms, CDFs, top-k — behind Fig. 6. Work is
// spread over a goroutine pool; results are deterministic regardless of the
// worker count (ties break on enumeration order).
//
// Searches are cancellable and observable: every engine takes a
// context.Context and stops within one work chunk of cancellation without
// leaking goroutines, and an optional Progress attachment exposes live
// evaluated/feasible counters, throughput, and an ETA (see Options).
package search

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/perf"
	"calculon/internal/system"
)

// Options configures an execution search.
type Options struct {
	// Enum bounds the strategy space (processor count, feature set, caps).
	Enum execution.EnumOptions
	// Workers is the goroutine-pool size; 0 means GOMAXPROCS.
	Workers int
	// TopK retains the best K results for CDF analysis (0 disables).
	TopK int
	// CollectRates retains every feasible configuration's sample rate for
	// histogram analysis (Fig. 6a). Costs 8 bytes per feasible point.
	CollectRates bool
	// Pareto maintains the time-versus-memory Pareto front across all
	// feasible configurations (Fig. 5's "minimize either time or memory"
	// choice). The front is kept incrementally, so memory stays bounded.
	Pareto bool

	// Progress, when non-nil, receives live counter updates (and the space
	// size, for the ETA) the caller can Snapshot from any goroutine while
	// the search runs. It may be shared across searches to aggregate a sweep.
	Progress *Progress
	// OnProgress, when non-nil, is invoked about every ProgressInterval from
	// a dedicated goroutine while the search runs, and once more,
	// synchronously, just before Execution returns — so the final callback
	// always carries the exact end-of-search counters (or the partial
	// counters of a cancelled run). The callback must be safe to call from
	// another goroutine.
	OnProgress func(ProgressSnapshot)
	// ProgressInterval is the OnProgress cadence; 0 means one second.
	ProgressInterval time.Duration

	// Cache, when non-nil, is a persistent store of finished search verdicts
	// (see internal/resultstore). It is consulted once per search, after
	// option normalization and before any evaluation: a hit returns the
	// stored Result verbatim — bit-identical to what the walk would produce,
	// a contract the resultstore equivalence tests lock in — and a miss runs
	// the search and stores the finished Result. Cancelled or failed
	// searches are never stored, and searches with CollectRates set bypass
	// the cache entirely (the Rates slice is ordered by worker completion,
	// which is not run-to-run deterministic). Leave it nil to bypass the
	// store.
	Cache Cache

	// sharedRunner, when non-nil, evaluates strategies instead of a freshly
	// built Runner. SystemSize threads per-size Runners drawn from one
	// perf.RunnerGroup through it so block profiles memoized at one size are
	// served at every other.
	sharedRunner *perf.Runner
	// ref selects the reference arms; the zero value runs every speed-up.
	ref refArms
}

// refArms turns off the search's result-preserving speed-ups, for the
// in-package equivalence suites and bench pairs that compare the default
// search against them. Each arm leaves the results and the Evaluated and
// Feasible counts bit-identical and zeroes the counter of the path it turns
// off, if any. A search with an arm set bypasses the Cache: the store key
// does not tell the arms apart, so a reference run must not be served, nor
// record counters a default search would later be served.
type refArms struct {
	// noPreScreen turns off the phase-1 analytic filter, and with it the
	// subtree prune, which is built on the same bound.
	noPreScreen bool
	// noMemo turns off the phase-2 block-profile cache, including the one a
	// SystemSize sweep shares across sizes.
	noMemo bool
	// noSubtreePrune pre-screens every leaf instead of dropping whole
	// (tp,pp,dp) subtrees the closed-form bound rules out.
	noSubtreePrune bool
	// noDelta evaluates on the scratch path (RunDetailed) instead of a
	// perf.RunDelta chain per worker.
	noDelta bool
}

// Result is the outcome of an execution search.
type Result struct {
	// Best is the fastest feasible configuration found.
	Best perf.Result
	// Top holds the TopK best results, fastest first.
	Top []perf.Result
	// Evaluated counts every strategy tried; Feasible those that could run
	// (the paper's 10,957,376 vs 1,974,902 for GPT-3 175B on 4,096 GPUs).
	Evaluated int
	Feasible  int
	// PreScreened counts the evaluations rejected by the phase-1 analytic
	// filter before any layer-level work (a subset of Evaluated−Feasible);
	// CacheHits counts evaluations that reused a memoized block profile.
	// Both are 0 on the reference arms that turn those paths off.
	PreScreened int
	CacheHits   int
	// SubtreePruned counts the strategies dropped at the lattice level:
	// leaves of (tp,pp,dp) subtrees whose closed-form bound proved every
	// toggle combination infeasible, accounted in closed form without being
	// enumerated. They are a subset of PreScreened (pruned leaves count as
	// Evaluated and PreScreened, exactly as the leaf-by-leaf path would);
	// 0 on the reference arms without the subtree prune or the pre-screen.
	SubtreePruned int
	// Rates holds every feasible sample rate when CollectRates is set.
	Rates []float64
	// Pareto holds the time-vs-memory front when Options.Pareto is set,
	// fastest (and most memory-hungry) first.
	Pareto []perf.Result
}

// Found reports whether any feasible configuration exists.
func (r Result) Found() bool { return r.Feasible > 0 }

type indexed struct {
	seq int
	st  execution.Strategy
}

type scored struct {
	seq int
	res perf.Result
}

// better reports whether a should be preferred over b: higher sample rate,
// with enumeration order as the deterministic tie-break. Sequence numbers
// are unique, so better is a strict total order and every fold below —
// per worker, across workers, across shards — ranks the same candidates
// identically whatever the worker count or split.
func better(a, b *scored) bool {
	return ahead(a.res.SampleRate, a.seq, b)
}

// ahead is better for a candidate not yet copied into a scored: the fold
// compares through the caller's pointer and copies only what it keeps.
func ahead(rate float64, seq int, b *scored) bool {
	if rate != b.res.SampleRate {
		return rate > b.res.SampleRate
	}
	return seq < b.seq
}

// cmpScored is better as a slices.SortFunc comparator.
func cmpScored(a, b scored) int {
	switch {
	case better(&a, &b):
		return -1
	case better(&b, &a):
		return 1
	}
	return 0
}

const chunkSize = 256

// chunkPool recycles the producer's strategy buffers: workers return each
// chunk after evaluating it, so a steady-state search keeps roughly one
// buffer in flight per worker instead of allocating one per 256 strategies.
// Chunks travel by pointer so neither side boxes a slice header per cycle.
var chunkPool = sync.Pool{New: func() any {
	b := make([]indexed, 0, chunkSize)
	return &b
}}

// newChunk returns an empty chunk buffer, recycled when available.
func newChunk() *[]indexed {
	b := chunkPool.Get().(*[]indexed)
	*b = (*b)[:0]
	return b
}

// Execution exhaustively evaluates every strategy the options allow for the
// model on the system and returns the best performer with statistics.
//
// Cancelling the context stops the search promptly — enumeration halts, each
// worker finishes at most its current chunk, and no goroutines are leaked.
// On cancellation the returned error is ctx.Err() and the Result still
// carries the partial Evaluated/Feasible counters (consistent with any
// attached Progress), though Best/Top/Pareto cover only the strategies seen.
func Execution(ctx context.Context, m model.LLM, sys system.System, opts Options) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts, err := normalizeOptions(m, sys, opts)
	if err != nil {
		return Result{}, err
	}

	// The store is consulted once the options are normalized, so every
	// spelling of the same search maps to one cache identity.
	var lookup func() (Result, bool)
	var save func(Result)
	if opts.Cache != nil && !opts.CollectRates && opts.ref == (refArms{}) {
		lookup = func() (Result, bool) { return opts.Cache.Lookup(m, sys, opts) }
		save = func(res Result) { opts.Cache.Store(m, sys, opts, res) }
	}
	return Run(ctx, opts.observer(), lookup, save, func(prog *Progress) (Result, error) {
		merged, subtreePruned, err := executionScored(ctx, m, sys, opts, prog, opts.Enum.Triples(m), 0)
		if err != nil {
			return Result{}, err
		}
		return resultFrom(merged, subtreePruned, opts), ctx.Err()
	})
}

// observer is the observation half of the options.
func (o Options) observer() Observer {
	return Observer{Progress: o.Progress, OnProgress: o.OnProgress, Interval: o.ProgressInterval}
}

// normalizeOptions validates the inputs and fills the option defaults. Both
// the plain and the sharded search run it, so the same search always walks
// the same triples in the same global sequence regardless of how it is
// split.
func normalizeOptions(m model.LLM, sys system.System, opts Options) (Options, error) {
	if err := m.Validate(); err != nil {
		return opts, err
	}
	if err := sys.Validate(); err != nil {
		return opts, err
	}
	if opts.Enum.Procs == 0 {
		opts.Enum.Procs = sys.Procs
	}
	if err := opts.Enum.Validate(); err != nil {
		return opts, err
	}
	if opts.Enum.Features == "" {
		opts.Enum.Features = execution.FeatureAll
	}
	opts.Enum.HasMem2 = sys.Mem2.Present()
	return opts, nil
}

// executionScored is the engine room shared by Execution and
// ExecutionShard: it runs the worker pool and the lattice producer over a
// contiguous run of (tp,pp,dp) triples and returns the merged per-worker
// state (with global sequence numbers, the deterministic tie-break key)
// plus the closed-form count of subtree-pruned leaves, both already folded
// into the counters. seqBase is the global sequence number of the first
// leaf of triples — the leaf count of everything before the range — so a
// shard scores its strategies exactly as the single-process walk would.
// prog, when set, gets the leaf count of triples as its total.
func executionScored(ctx context.Context, m model.LLM, sys system.System, opts Options, prog *Progress, triples [][3]int, seqBase int) (workerState, int, error) {
	if prog != nil {
		prog.AddTotal(int64(opts.Enum.LeafCount(m, triples)))
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	runner := opts.sharedRunner
	if runner == nil {
		var err error
		if runner, err = perf.NewRunner(m, sys); err != nil {
			return workerState{}, 0, err
		}
	}
	if opts.ref.noPreScreen {
		runner.DisablePreScreen()
	}
	if opts.ref.noMemo {
		runner.DisableMemo()
	}
	if opts.ref.noDelta {
		runner.DisableDelta()
	}
	chunks := make(chan *[]indexed, workers)
	results := make(chan workerState, workers)
	for w := 0; w < workers; w++ {
		go func() {
			ws := newWorkerState(opts.TopK, opts.Pareto)
			// Each worker threads one delta chain through its strategies:
			// inside a chunk the Gray-code toggle order makes neighbors
			// differ in a single toggle, so most term groups carry over.
			// The chain is goroutine-local; the Runner stays shared.
			var chain perf.RunInfo
			var res perf.Result
			for chunk := range chunks {
				// After cancellation, keep draining so the producer's sends
				// and close always complete, but stop evaluating.
				if ctx.Err() != nil {
					chunkPool.Put(chunk)
					continue
				}
				evalBefore, feasBefore := ws.evaluated, ws.feasible
				preBefore, hitBefore := ws.prescreened, ws.cacheHits
				for _, it := range *chunk {
					ws.evaluated++
					info, err := runner.RunDeltaInto(chain, it.st, &res)
					chain = info
					if info.PreScreened {
						ws.prescreened++
					}
					if info.CacheHit {
						ws.cacheHits++
					}
					if err != nil {
						continue
					}
					ws.add(it.seq, &res, opts.CollectRates)
				}
				chunkPool.Put(chunk)
				if prog != nil {
					prog.AddCounts(Counts{
						Evaluated:   int64(ws.evaluated - evalBefore),
						Feasible:    int64(ws.feasible - feasBefore),
						PreScreened: int64(ws.prescreened - preBefore),
						CacheHits:   int64(ws.cacheHits - hitBefore),
					})
				}
			}
			results <- ws
		}()
	}

	// The producer walks the (tp,pp,dp) lattice: subtrees whose every toggle
	// projection fails the closed-form bound are dropped whole, with their
	// leaf count — exact, by TripleLeafCount — folded into the counters and
	// the enumeration sequence so downstream tie-breaks and ETAs are
	// bit-identical to the leaf-by-leaf path.
	var screen *execution.PreScreen
	if !opts.ref.noSubtreePrune && !opts.ref.noPreScreen {
		screen = execution.NewPreScreen(m, execution.Limits{
			Procs: sys.Procs,
			Mem1:  sys.Mem1.Capacity,
			Mem2:  sys.Mem2.Capacity,
		})
	}
	buf := newChunk()
	seq := seqBase
	subtreePruned := 0
	for _, tpd := range triples {
		if ctx.Err() != nil {
			break
		}
		if screen != nil {
			if err := screen.CheckTriple(opts.Enum, tpd); err != nil {
				leaves := opts.Enum.TripleLeafCount(m, tpd)
				seq += leaves
				subtreePruned += leaves
				if prog != nil {
					prog.AddCounts(Counts{
						Evaluated:     int64(leaves),
						PreScreened:   int64(leaves),
						SubtreePruned: int64(leaves),
					})
				}
				continue
			}
		}
		_, more := opts.Enum.EnumerateTriple(m, tpd, func(st execution.Strategy) bool {
			*buf = append(*buf, indexed{seq, st})
			seq++
			if len(*buf) == chunkSize {
				select {
				case chunks <- buf:
				case <-ctx.Done():
					return false
				}
				buf = newChunk()
			}
			return true
		})
		if !more {
			break
		}
	}
	if len(*buf) > 0 {
		select {
		case chunks <- buf:
		case <-ctx.Done():
		}
	}
	close(chunks)

	merged := newWorkerState(opts.TopK, opts.Pareto)
	for w := 0; w < workers; w++ {
		ws := <-results
		merged.merge(&ws)
	}
	merged.evaluated += subtreePruned
	merged.prescreened += subtreePruned
	return merged, subtreePruned, nil
}

// resultFrom converts the merged worker state into the exported Result,
// dropping the sequence numbers after the final deterministic ordering.
func resultFrom(merged workerState, subtreePruned int, opts Options) Result {
	out := Result{
		Evaluated:     merged.evaluated,
		Feasible:      merged.feasible,
		PreScreened:   merged.prescreened,
		CacheHits:     merged.cacheHits,
		SubtreePruned: subtreePruned,
		Rates:         merged.rates,
	}
	if merged.feasible > 0 {
		out.Best = merged.best.res
		out.Top = collect(merged.ranked(), func(s *scored) perf.Result { return s.res })
		if opts.Pareto {
			out.Pareto = collect(merged.front.Front(), func(s *scored) perf.Result { return s.res })
		}
	}
	return out
}

// collect maps candidates into a slice of exactly their length (nil when
// there are none): finished fronts are retained by the daemon registry and
// the store index, so they carry no spare capacity.
func collect[T any](s []scored, f func(*scored) T) []T {
	if len(s) == 0 {
		return nil
	}
	out := make([]T, len(s))
	for i := range s {
		out[i] = f(&s[i])
	}
	return out
}

// workerState accumulates per-goroutine results for a deterministic merge.
type workerState struct {
	evaluated   int
	feasible    int
	prescreened int
	cacheHits   int
	best        scored
	hasBest     bool
	topK        int
	// top holds at most topK candidates in better() order while a worker
	// folds; merge concatenates the workers' lists and ranked sorts them.
	top    []scored
	rates  []float64
	pareto bool
	front  ParetoFold[scored]
}

// newWorkerState returns an empty fold keeping the best topK candidates
// and, when pareto is set, the time-versus-memory front.
func newWorkerState(topK int, pareto bool) workerState {
	return workerState{topK: topK, pareto: pareto, front: NewParetoFold(timeMemBefore, timeMemDominates)}
}

// timeMemBefore orders the time-versus-memory front: faster, then leaner,
// then enumeration order.
func timeMemBefore(a, b *scored) int {
	return cmp.Or(cmp.Compare(a.res.BatchTime, b.res.BatchTime), cmp.Compare(a.res.Mem1.Total(), b.res.Mem1.Total()), cmp.Compare(a.seq, b.seq))
}

// timeMemDominates reports whether a is at least as fast and as lean as b.
func timeMemDominates(a, b *scored) bool {
	return a.res.BatchTime <= b.res.BatchTime && a.res.Mem1.Total() <= b.res.Mem1.Total()
}

// add records one feasible result. The result is passed by pointer and
// compared through it — against the best so far and against the K-th
// entry once top is full — so it is copied only into a slot that keeps
// it; the losers, nearly every strategy of a large search, cost no copy.
func (ws *workerState) add(seq int, res *perf.Result, collectRates bool) {
	ws.feasible++
	if !ws.hasBest || ahead(res.SampleRate, seq, &ws.best) {
		ws.best.seq = seq
		ws.best.res = *res
		ws.hasBest = true
	}
	if ws.topK > 0 {
		ws.insertTop(seq, res)
	}
	if ws.pareto {
		ws.front.Push(scored{seq, *res})
	}
	if collectRates {
		ws.rates = append(ws.rates, res.SampleRate)
	}
}

// insertTop keeps top as the best topK candidates seen, in better()
// order: a candidate that does not beat the current K-th entry of a full
// list is dropped; otherwise it is inserted in place, evicting the K-th.
func (ws *workerState) insertTop(seq int, res *perf.Result) {
	n := len(ws.top)
	if n == ws.topK {
		if !ahead(res.SampleRate, seq, &ws.top[n-1]) {
			return
		}
	} else {
		if ws.top == nil {
			ws.top = make([]scored, 0, ws.topK)
		}
		ws.top = ws.top[:n+1]
		n++
	}
	i := n - 1
	for i > 0 && ahead(res.SampleRate, seq, &ws.top[i-1]) {
		i--
	}
	copy(ws.top[i+1:n], ws.top[i:n-1])
	ws.top[i].seq = seq
	ws.top[i].res = *res
}

// ranked sorts the merged top-K survivors — at most K per worker or shard —
// into better() order and returns the best K.
func (ws *workerState) ranked() []scored {
	slices.SortFunc(ws.top, cmpScored)
	return ws.top[:min(len(ws.top), ws.topK)]
}

// merge folds another worker's state into ws. The top lists are only
// concatenated; ranked orders the K·workers survivors once at the end.
func (ws *workerState) merge(o *workerState) {
	ws.evaluated += o.evaluated
	ws.feasible += o.feasible
	ws.prescreened += o.prescreened
	ws.cacheHits += o.cacheHits
	if o.hasBest && (!ws.hasBest || better(&o.best, &ws.best)) {
		ws.best = o.best
		ws.hasBest = true
	}
	ws.top = append(ws.top, o.top...)
	for i := range o.front.pts {
		ws.front.Push(o.front.pts[i])
	}
	ws.rates = append(ws.rates, o.rates...)
}

// ScalingPoint is one system size of a §5.2 sweep.
type ScalingPoint struct {
	Procs    int
	Best     perf.Result
	Feasible int
	// Found is false when no configuration fits at this size (the zero-
	// performance points of Fig. 7).
	Found bool
}

// SystemSize runs a full execution search at each processor count,
// producing the scaling/efficiency-cliff data of Figs. 7 and 10.
//
// The sweep divides one global worker budget — opts.Workers, defaulting to
// GOMAXPROCS — across the sizes: up to budget sizes run concurrently, each
// with budget/concurrency workers, so a single-size sweep gets the whole
// pool and a wide sweep never oversubscribes it. Because the block-profile
// memo key contains nothing size-dependent, every per-size search shares one
// memo through a perf.RunnerGroup whenever the per-size systems agree on the
// memo-relevant inputs; profiles computed at one size are reused at all
// others, bit-identically.
//
// Cancellation propagates to every per-size search; on cancellation the
// points computed so far are returned together with ctx.Err(). A Progress
// attached through opts aggregates counters across all sizes.
func SystemSize(ctx context.Context, m model.LLM, sysAt func(procs int) system.System, sizes []int, opts Options) ([]ScalingPoint, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var group *perf.RunnerGroup
	if len(sizes) > 0 && !opts.ref.noMemo {
		// Sharing is best-effort: a sysAt that varies memo-relevant inputs
		// with size makes RunnerFor refuse below, and that size falls back
		// to a private memo.
		group, _ = perf.NewRunnerGroup(m, sysAt(sizes[0]))
	}
	return Sweep(ctx, len(sizes), opts.Workers, opts.observer(), func(i, workers int, prog *Progress) (ScalingPoint, error) {
		n := sizes[i]
		o := opts
		o.Enum.Procs = n
		o.Workers, o.Progress, o.OnProgress = workers, prog, nil
		sys := sysAt(n)
		if group != nil {
			o.sharedRunner, _ = group.RunnerFor(sys)
		}
		res, err := Execution(ctx, m, sys, o)
		if err != nil {
			return ScalingPoint{}, fmt.Errorf("size %d: %w", n, err)
		}
		return ScalingPoint{Procs: n, Best: res.Best, Feasible: res.Feasible, Found: res.Found()}, nil
	})
}

// Sweep runs call once for each index in [0, n) under one worker budget
// (budget ≤ 0 means GOMAXPROCS): min(n, budget) calls run at a time, each
// handed budget/min(n, budget) workers, so a single call gets the whole
// pool and a wide sweep never oversubscribes it. SystemSize and the serving
// right-sizing sweep share it. The obs ticker watches the whole sweep: each
// call's search runs under the Progress it is handed and ticks nothing.
//
// It returns the calls' values in index order. The first error a call
// returns wins, and the values are then dropped; an error returned once ctx
// is cancelled only drops that call's value, so cancellation never
// masquerades as a failure. Calls still waiting for a slot when ctx is
// cancelled never start, and a cancelled sweep returns the values computed
// so far together with ctx.Err().
func Sweep[T any](ctx context.Context, n, budget int, obs Observer, call func(i, workers int, prog *Progress) (T, error)) ([]T, error) {
	prog := obs.Progress
	if obs.OnProgress != nil {
		if prog == nil {
			prog = &Progress{}
		}
		defer prog.Watch(ctx, obs.OnProgress, obs.Interval)()
	}
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	concurrent := max(1, min(n, budget))
	workers := max(1, budget/concurrent)
	out := make([]T, n)
	var firstErr error
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, concurrent)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				return
			}
			defer func() { <-sem }()
			v, err := call(i, workers, prog)
			if err != nil {
				mu.Lock()
				if firstErr == nil && ctx.Err() == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			out[i] = v
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, ctx.Err()
}

// Sizes returns the multiples of step in [step, max], the x-axis of the
// scaling studies ("considering only multiples of 8 GPUs").
func Sizes(step, max int) []int {
	var out []int
	for n := step; n <= max; n += step {
		out = append(out, n)
	}
	return out
}
