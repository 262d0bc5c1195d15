package perf

import (
	"calculon/internal/execution"
)

// Term-group invalidation masks: for each group of evaluation terms, the set
// of Strategy fields whose change can perturb the group's outputs. A group
// is recomputed by RunDelta exactly when the field diff between the previous
// and current strategy intersects its mask; otherwise its outputs — pure
// functions of unchanged inputs — carry over bit-identically from the
// previous evaluation. Masks compose along the dataflow: a group that reads
// another group's outputs includes that group's mask (profileMask sits
// inside every consumer, tensorMask inside offloadMask). The
// delta-vs-scratch equivalence tests (and the no-delta arm of the search
// equivalence suite) pin that these masks are sufficient; being too wide
// only costs speed, never correctness.
const (
	// shapeMask covers the derived shape quantities n (microbatches per
	// pipeline pass: DP and Microbatch), bp (blocks per processor: PP), and
	// bc (blocks per chunk: PP and Interleave).
	shapeMask = execution.FieldPP | execution.FieldDP |
		execution.FieldMicrobatch | execution.FieldInterleave

	// profileMask covers the memoized per-block profile: exactly the
	// blockKey fields (tp, microbatch, recompute, seqParallel, tpRedo,
	// fused, inference). Every downstream group reads profile outputs, so
	// profileMask is included in all of them.
	profileMask = execution.FieldTP | execution.FieldMicrobatch |
		execution.FieldRecompute | execution.FieldSeqParallel |
		execution.FieldTPRedoForSP | execution.FieldFusedLayers |
		execution.FieldInference

	// tensorMask covers eval.tensorComm: TP collectives sized by
	// (TP, Microbatch), shaped by TPRSAG/TPRedoForSP/Recompute, overlapped
	// per TPOverlap against the profile's block times.
	tensorMask = profileMask | execution.FieldTPRSAG | execution.FieldTPOverlap

	// pipeMask covers eval.pipelineComm: boundary traffic per (PP,
	// Interleave, Inference), sharded per PPRSAG/SeqParallel/TP, sized by
	// the profile's boundary bytes.
	pipeMask = profileMask | execution.FieldPP | execution.FieldPPRSAG |
		execution.FieldInterleave

	// dataMask covers eval.dataComm: gradient synchronization over DP,
	// shaped by OptimSharding/DPOverlap, overlapped against the profile's
	// block times across the shape quantities.
	dataMask = profileMask | shapeMask | execution.FieldOptimSharding |
		execution.FieldDPOverlap | execution.FieldOneFOneB

	// optimMask covers eval.optimizer: the Adam step over the local
	// (possibly sharded, possibly offloaded) parameters.
	optimMask = profileMask | shapeMask | execution.FieldOptimSharding |
		execution.FieldOptimOffload

	// offloadMask covers eval.offload, which reads tensorComm's exposed
	// times as overlap windows in addition to the offload switches.
	offloadMask = tensorMask | shapeMask | execution.FieldWeightOffload |
		execution.FieldActOffload | execution.FieldOptimOffload |
		execution.FieldOptimSharding

	// memoryMask covers eval.memory: per-tier totals over weights,
	// gradients, optimizer state, and activations, including the in-flight
	// microbatch count (OneFOneB) and every offload/sharding residency rule.
	memoryMask = profileMask | shapeMask | execution.FieldOneFOneB |
		execution.FieldOptimSharding | execution.FieldDPOverlap |
		execution.FieldWeightOffload | execution.FieldActOffload |
		execution.FieldOptimOffload

	// screenMask covers the fields the phase-1 analytic pre-screen verdict
	// (and its error operands) can depend on; see
	// execution.PreScreen.Check and EnumOptions.boundLeaves.
	screenMask = execution.FieldTP | execution.FieldPP | execution.FieldDP |
		execution.FieldOptimSharding | execution.FieldDPOverlap |
		execution.FieldWeightOffload | execution.FieldActOffload |
		execution.FieldOptimOffload | execution.FieldInference

	allFields = ^execution.FieldMask(0)
)

// deltaState carries one evaluation chain's reusable terms between RunDelta
// calls: the last fully evaluated strategy, its eval state and memory
// breakdown, and the last pre-screened strategy with its verdict. It is NOT
// safe for concurrent use — each worker goroutine threads its own chain
// through the RunInfo it gets back — while the owning Runner stays shared.
type deltaState struct {
	r *Runner // owning runner; a chain never crosses runners

	valid bool
	prev  execution.Strategy // normalized, groups fully evaluated
	e     eval
	mem1  MemBreakdown
	mem2  MemBreakdown

	screenValid bool
	screenPrev  execution.Strategy
	screenErr   error // the verdict, already wrapped as infeasible

	// profCache is a chain-local mirror of the Runner's shared profile memo:
	// a plain map with a concrete key type, so repeat lookups on this chain
	// skip the sync.Map's interface boxing and hashing. An entry exists only
	// for keys this chain already fetched through r.profile — which inserted
	// them into the shared memo — so a local hit is, bit for bit, the cache
	// hit the scratch path would have reported. Never consulted under
	// DisableMemo (profiles must be recomputed, and CacheHits must stay 0).
	profCache map[blockKey]*blockProfile
}

// DisableDelta makes RunDelta fall back to the scratch path (RunDetailed)
// so every evaluation recomputes all terms. It exists as an escape hatch and
// as the reference arm of the equivalence tests; call it before the Runner
// is shared across goroutines.
func (r *Runner) DisableDelta() { r.noDelta = true }

// RunDelta evaluates one strategy incrementally against the previous
// evaluation of the same chain: it diffs st against the last strategy this
// chain fully evaluated and recomputes only the term groups the changed
// fields can perturb, carrying everything else forward unrecomputed. The
// chain is threaded through RunInfo — pass the RunInfo returned by the
// previous RunDelta call (or a zero RunInfo to start a chain). Results,
// feasibility verdicts, and RunInfo flags are bit-identical to RunDetailed;
// only the work differs. The fewer fields change between successive calls —
// e.g. along execution's Gray-code toggle order, where neighbors differ in
// one toggle — the more is reused.
//
// A chain must stay within one goroutine; the Runner itself remains safe
// for concurrent use by many chains.
func (r *Runner) RunDelta(prev RunInfo, st execution.Strategy) (Result, RunInfo, error) {
	var res Result
	info, err := r.RunDeltaInto(prev, st, &res)
	return res, info, err
}

// RunDeltaInto is RunDelta writing the result into *out instead of
// returning it, so tight search loops reuse one Result instead of copying
// ~400 bytes through every return frame. On success *out holds the result;
// on error (or on the DisableDelta fallback's error path) *out is zeroed,
// exactly the Result a scratch call would have returned.
func (r *Runner) RunDeltaInto(prev RunInfo, st execution.Strategy, out *Result) (RunInfo, error) {
	if r.noDelta {
		var info RunInfo
		var err error
		*out, info, err = r.RunDetailed(st)
		return info, err
	}
	d := prev.delta
	if d == nil || d.r != r {
		d = &deltaState{r: r}
	}
	info, err := r.runDelta(d, st, out)
	info.delta = d
	if c := r.counters; c != nil {
		c.evaluated.Add(1)
		if err != nil {
			c.infeasible.Add(1)
		}
		if info.PreScreened {
			c.prescreened.Add(1)
		}
		if info.CacheHit {
			c.cacheHits.Add(1)
		}
	}
	return info, err
}

// runDelta mirrors Runner.run stage by stage; every recomputed group calls
// the same method on the same inputs, and every skipped group's outputs are
// pure functions of inputs the field diff proves unchanged, so the two
// paths are bit-identical by construction (and by the equivalence tests).
// The result lands in *out, which is zeroed on every error path.
func (r *Runner) runDelta(d *deltaState, st execution.Strategy, out *Result) (RunInfo, error) {
	m, sys := r.m, &r.sys
	st = st.Normalize()
	if err := st.Validate(m); err != nil {
		*out = Result{}
		return RunInfo{}, infeasible("%v", err)
	}
	if r.screen != nil && !r.noPreScreen {
		// The pre-screen verdict depends only on screenMask fields, so a
		// diff outside the mask reuses the previous verdict (same error
		// value, same nil), wrapped once when it was computed. The screen
		// chain is tracked separately from the eval chain: screened-and-
		// rejected strategies never reach the eval stages, so d.prev would
		// be the wrong diff base.
		if !d.screenValid || execution.DiffMask(d.screenPrev, st).Has(screenMask) {
			d.screenErr = nil
			if err := r.screen.Check(st); err != nil {
				d.screenErr = infeasible("%v", err)
			}
		}
		d.screenValid, d.screenPrev = true, st
		if d.screenErr != nil {
			*out = Result{}
			return RunInfo{PreScreened: true}, d.screenErr
		}
	} else {
		if st.Procs() > sys.Procs {
			*out = Result{}
			return RunInfo{}, infeasible("strategy needs %d procs, system has %d", st.Procs(), sys.Procs)
		}
		if (st.WeightOffload || st.ActOffload || st.OptimOffload) && !sys.Mem2.Present() {
			*out = Result{}
			return RunInfo{}, infeasible("offloading requires a second memory tier")
		}
	}

	mask := allFields
	if d.valid {
		mask = execution.DiffMask(d.prev, st)
	} else {
		d.e.m, d.e.sys = m, *sys
	}
	e := &d.e
	e.st = st

	var hit bool
	if !d.valid || r.noMemo || mask.Has(profileMask) {
		var prof *blockProfile
		if r.noMemo {
			prof, hit = r.profile(st)
		} else if p, ok := d.profCache[keyFor(st)]; ok {
			prof, hit = p, true
		} else {
			prof, hit = r.profile(st)
			if d.profCache == nil {
				d.profCache = make(map[blockKey]*blockProfile, 64)
			}
			d.profCache[keyFor(st)] = prof
		}
		e.tot = prof.tot
		e.boundaryBytes = prof.boundaryBytes
		e.blockFwd, e.blockBwd, e.blockRecompute = prof.fwd, prof.bwd, prof.recompute
		e.blockFwdSlack, e.blockBwdSlack, e.recompSlack = prof.fwdSlack, prof.bwdSlack, prof.rcSlack
	} else {
		// The memo necessarily holds this blockKey — the previous
		// evaluation put it there — so the scratch path would have hit.
		hit = true
	}
	info := RunInfo{CacheHit: hit}

	if mask.Has(shapeMask) {
		e.n = st.Microbatches(m)
		e.bp = st.BlocksPerProc(m)
		e.bc = st.BlocksPerChunk(m)
	}
	// Each group's outputs are zeroed before the recompute because the
	// methods accumulate (+=) or early-return leaving zeros (TP≤1, PP≤1,
	// no offload) — exactly the state a zero-initialized scratch eval has.
	if mask.Has(tensorMask) {
		e.tpFwdPerBlock, e.tpBwdPerBlock = 0, 0
		e.tpFwdExposedPerBlock, e.tpBwdExposedPerBlock = 0, 0
		e.fwdPenalty, e.bwdPenalty = 0, 0
		e.tensorComm()
	}
	if mask.Has(pipeMask) {
		e.ppPerMicrobatch, e.ppExposedPerMicrobatch = 0, 0
		e.pipelineComm()
	}
	if mask.Has(dataMask) {
		e.dpTotal, e.dpExposed, e.dpPenalty = 0, 0, 0
		e.dataComm()
	}
	if mask.Has(optimMask) {
		e.optimTime = 0
		e.optimizer()
	}
	if mask.Has(offloadMask) {
		e.offloadTotal, e.offloadExposed = 0, 0
		e.offloadBWRequired, e.offloadBWUsed = 0, 0
		e.offload()
	}
	if mask.Has(memoryMask) {
		d.mem1, d.mem2 = e.memory()
	}
	// The eval state is now fully that of st; later infeasibility (memory
	// overflow) does not invalidate it as a diff base.
	d.prev, d.valid = st, true

	mem1, mem2 := d.mem1, d.mem2
	if mem1.Total() > sys.Mem1.Capacity {
		*out = Result{}
		return info, &memError{1, mem1.Total(), sys.Mem1.Capacity}
	}
	if mem2.Total() > sys.Mem2.Capacity {
		*out = Result{}
		return info, &memError{2, mem2.Total(), sys.Mem2.Capacity}
	}

	t := e.assemble()
	batch := t.Total()
	*out = Result{
		Model:             m,
		System:            sys.Name,
		Strategy:          st,
		BatchTime:         batch,
		SampleRate:        batch.Rate(float64(m.Batch)),
		Time:              t,
		Mem1:              mem1,
		Mem2:              mem2,
		OffloadBWRequired: e.offloadBWRequired,
		OffloadBWUsed:     e.offloadBWUsed,
		ProcsUsed:         st.Procs(),
	}
	useful := r.usefulFLOPs(st)
	peak := sys.Compute.MatrixPeak.Times(float64(st.Procs()))
	out.MFU = useful.Ratio(peak.For(batch))
	return info, nil
}
