package execution

import (
	"fmt"

	"calculon/internal/model"
)

// FeatureSet names a family of allowed optimizations, mirroring the paper's
// study variants (Fig. 5): the original Megatron set, the sequence-parallel
// set, and the full Table 1 space.
type FeatureSet string

const (
	// FeatureBaseline is the original Megatron optimization set [29]:
	// microbatching, 1F1B, interleaving, full-or-no recompute, TP RS+AG.
	FeatureBaseline FeatureSet = "baseline"
	// FeatureSeqPar adds sequence parallelism with selective (attention)
	// recompute and TP-redo [20].
	FeatureSeqPar FeatureSet = "seqpar"
	// FeatureAll is every compatible technique from Table 1: optimizer
	// sharding, TP/DP communication overlap, fused layers, PP RS+AG, and —
	// when the system has a second memory tier — tensor offloading.
	FeatureAll FeatureSet = "all"
)

// Valid reports whether the set is one of the defined constants.
func (f FeatureSet) Valid() bool {
	switch f {
	case FeatureBaseline, FeatureSeqPar, FeatureAll:
		return true
	}
	return false
}

// EnumOptions bounds strategy enumeration.
type EnumOptions struct {
	// Procs is the exact number of processors every strategy must occupy.
	Procs int
	// Features selects which optimization toggles are explored.
	Features FeatureSet
	// HasMem2 permits the offload switches.
	HasMem2 bool
	// MaxTP caps the tensor-parallel degree (e.g. 32 in §4.1 where the
	// NVLink domain is stretched to the TP degree). Zero means no cap
	// beyond the model's head count.
	MaxTP int
	// MaxInterleave caps the interleaving factor explored. Zero means up to
	// the per-processor block count (divisor values only).
	MaxInterleave int
	// FixedTP/FixedPP/FixedDP pin a degree when nonzero (grid studies).
	FixedTP, FixedPP, FixedDP int
	// MicrobatchDivisorsOnly restricts m to divisors of the per-pipeline
	// batch; this is always true (non-divisors are infeasible) and the field
	// exists for documentation.
	MicrobatchDivisorsOnly bool
	// PinBeneficial fixes the toggles that are monotonically beneficial
	// under the performance model (1F1B, fused layers, DP overlap, ring TP
	// overlap, optimizer sharding) instead of enumerating both settings.
	// This shrinks large sweeps by ~50× without changing the optimum; the
	// non-monotone trade-offs (recompute, sequence parallelism, offload,
	// microbatch, interleaving) are still explored exhaustively.
	PinBeneficial bool
}

// divisors returns the sorted divisors of n.
func divisors(n int) []int {
	var small, large []int
	for i := 1; i*i <= n; i++ {
		if n%i == 0 {
			small = append(small, i)
			if j := n / i; j != i {
				large = append(large, j)
			}
		}
	}
	for i := len(large) - 1; i >= 0; i-- {
		small = append(small, large[i])
	}
	return small
}

// Triples enumerates every (t,p,d) with t·p·d = procs that satisfies the
// model's structural constraints: t ≤ heads (and ≤ MaxTP when set),
// p ≤ blocks, d | batch. Degrees pinned in the options are respected.
func (o EnumOptions) Triples(m model.LLM) [][3]int {
	var out [][3]int
	maxTP := m.AttnHeads
	if o.MaxTP > 0 && o.MaxTP < maxTP {
		maxTP = o.MaxTP
	}
	for _, t := range divisors(o.Procs) {
		if t > maxTP || (o.FixedTP != 0 && t != o.FixedTP) {
			continue
		}
		rest := o.Procs / t
		for _, p := range divisors(rest) {
			if p > m.Blocks || (o.FixedPP != 0 && p != o.FixedPP) {
				continue
			}
			d := rest / p
			if d > m.Batch || m.Batch%d != 0 {
				continue
			}
			if o.FixedDP != 0 && d != o.FixedDP {
				continue
			}
			out = append(out, [3]int{t, p, d})
		}
	}
	return out
}

// Enumerate streams every strategy permitted by the options for the given
// model through yield; returning false from yield stops the enumeration.
// The count of generated strategies is returned.
func (o EnumOptions) Enumerate(m model.LLM, yield func(Strategy) bool) int {
	count := 0
	for _, tpd := range o.Triples(m) {
		n, more := o.EnumerateTriple(m, tpd, yield)
		count += n
		if !more {
			break
		}
	}
	return count
}

// EnumerateTriple streams every strategy of one (t,p,d) subtree through
// yield, in the same order Enumerate visits them. It returns the number of
// strategies generated and whether the subtree ran to completion (false when
// yield stopped it). The triple must come from Triples — the structural
// constraints are not re-checked here.
func (o EnumOptions) EnumerateTriple(m model.LLM, tpd [3]int, yield func(Strategy) bool) (int, bool) {
	count := 0
	emit := func(s Strategy) bool {
		count++
		return yield(s)
	}
	perPipe := m.Batch / tpd[2]
	base := Strategy{TP: tpd[0], PP: tpd[1], DP: tpd[2]}
	for _, mb := range divisors(perPipe) {
		s1 := base
		s1.Microbatch = mb
		if !o.forEachSchedule(m, s1, func(s2 Strategy) bool {
			return o.forEachToggle(s2, emit)
		}) {
			return count, false
		}
	}
	return count, true
}

// TripleLeafCount returns, in closed form, the number of strategies
// EnumerateTriple generates for the (t,p,d) subtree: the microbatch divisor
// count times the schedule variants times the toggle combinations. The
// lattice-pruned search uses it to keep the Evaluated/PreScreened counters
// and the ETA total exact without materializing pruned subtrees;
// TestLatticeCountsConsistent pins the equality against the enumerator.
func (o EnumOptions) TripleLeafCount(m model.LLM, tpd [3]int) int {
	mbs := countDivisors(m.Batch/tpd[2], 0)
	sched := 0
	if !o.PinBeneficial {
		sched++ // the plain GPipe-like schedule
	}
	if tpd[1] == 1 {
		sched++ // interleaving is meaningless without pipeline parallelism
	} else {
		sched += countDivisors((m.Blocks+tpd[1]-1)/tpd[1], o.MaxInterleave)
	}
	return mbs * sched * o.togglesPerLeaf()
}

// countDivisors counts the divisors of n up to limit (0 means no limit)
// without listing them: searches sum TripleLeafCount over whole spaces.
func countDivisors(n, limit int) int {
	if limit <= 0 {
		limit = n
	}
	c := 0
	for i := 1; i*i <= n; i++ {
		if n%i != 0 {
			continue
		}
		if i <= limit {
			c++
		}
		if j := n / i; j != i && j <= limit {
			c++
		}
	}
	return c
}

// togglesPerLeaf counts the switch combinations forEachToggle emits per
// (triple, microbatch, schedule) point; it mirrors that function's slices
// exactly and depends only on the options.
func (o EnumOptions) togglesPerLeaf() int {
	recomputes, comms := 2, 2
	tpOv, dpOv, shards, fused, offloads := 1, 1, 1, 1, 1
	switch o.Features {
	case FeatureBaseline:
	case FeatureSeqPar:
		recomputes, comms = 3, 4
	default: // FeatureAll
		recomputes, comms = 3, 7
		tpOv, dpOv, shards, fused = 3, 2, 2, 2
		if o.HasMem2 {
			offloads = 8
		}
	}
	if o.PinBeneficial {
		tpOv, dpOv, shards, fused = 1, 1, 1, 1
	}
	return recomputes * comms * tpOv * dpOv * shards * fused * offloads
}

// boundLeaves returns one representative strategy per distinct pre-screen
// verdict in the (t,p,d) subtree. PreScreen.Check reads only the parallelism
// degrees and the WeightOffload/OptimOffload/OptimSharding/DPOverlap
// switches (ActOffload reaches only the tier-presence check, which the
// offload projections cover), so projecting the toggle space onto those
// switches covers every leaf's verdict; the slices mirror forEachToggle.
func (o EnumOptions) boundLeaves(tpd [3]int) []Strategy {
	offs := []bool{false}
	shards := []bool{false}
	dpovs := []bool{false}
	switch o.Features {
	case FeatureBaseline, FeatureSeqPar:
	default: // FeatureAll
		shards, dpovs = []bool{false, true}, []bool{false, true}
		if o.PinBeneficial {
			shards, dpovs = shards[1:], dpovs[1:]
		}
		if o.HasMem2 {
			offs = []bool{false, true}
		}
	}
	out := make([]Strategy, 0, len(offs)*len(offs)*len(shards)*len(dpovs))
	for _, w := range offs {
		for _, oo := range offs {
			for _, sh := range shards {
				for _, dov := range dpovs {
					out = append(out, Strategy{
						TP: tpd[0], PP: tpd[1], DP: tpd[2],
						Microbatch: 1, Interleave: 1,
						Recompute: RecomputeNone, TPOverlap: TPOverlapNone,
						WeightOffload: w, OptimOffload: oo,
						OptimSharding: sh, DPOverlap: dov,
					})
				}
			}
		}
	}
	return out
}

// forEachSchedule enumerates pipeline schedule variants (1F1B on/off,
// interleave factors).
func (o EnumOptions) forEachSchedule(m model.LLM, s Strategy, yield func(Strategy) bool) bool {
	if !o.PinBeneficial {
		// Plain GPipe-like schedule (only sensible without interleaving).
		plain := s
		plain.OneFOneB = false
		plain.Interleave = 1
		if !yield(plain) {
			return false
		}
	}
	// 1F1B with every divisor interleaving of the per-proc block count.
	bp := s.BlocksPerProc(m)
	for _, v := range divisors(bp) {
		if o.MaxInterleave > 0 && v > o.MaxInterleave {
			break
		}
		if v > 1 && s.PP == 1 {
			break
		}
		ofb := s
		ofb.OneFOneB = true
		ofb.Interleave = v
		if !yield(ofb) {
			return false
		}
	}
	return true
}

// forEachToggle enumerates the optimization switches consistent with the
// feature set and the validation rules.
//
// The walk is a reflected mixed-radix Gray code over the toggle dimensions
// (recompute, comm combo, TP overlap, DP overlap, optimizer sharding, fused
// layers, offload combo): instead of restarting every inner dimension when
// an outer one advances, each dimension sweeps alternately up and down, so
// two successive strategies always differ in exactly one dimension. The
// offload dimension is itself a 3-bit Gray sequence, so successive offload
// combos flip a single switch. Delta evaluation (perf.Runner.RunDelta)
// exploits this adjacency: the fewer toggles change between neighbors, the
// more per-strategy terms carry over unrecomputed. Every combination is
// still emitted exactly once; only the order differs from a plain nested
// loop. The order is part of the deterministic tie-break sequence, so
// changing it is a strategy-space version bump (resultstore).
func (o EnumOptions) forEachToggle(s Strategy, yield func(Strategy) bool) bool {
	type commCombo struct {
		rsag, sp, redo, pprsag bool
	}
	var comms []commCombo
	recomputes := []RecomputeMode{RecomputeNone, RecomputeFull}
	tpOverlaps := []TPOverlapMode{TPOverlapNone}
	dpOverlaps := []bool{false}
	shards := []bool{false}
	fused := []bool{false}
	switch o.Features {
	case FeatureBaseline:
		comms = []commCombo{{}, {rsag: true}}
	case FeatureSeqPar:
		recomputes = []RecomputeMode{RecomputeNone, RecomputeAttn, RecomputeFull}
		comms = []commCombo{
			{}, {rsag: true},
			{rsag: true, sp: true}, {rsag: true, sp: true, redo: true},
		}
	default: // FeatureAll
		recomputes = []RecomputeMode{RecomputeNone, RecomputeAttn, RecomputeFull}
		comms = []commCombo{
			{}, {rsag: true}, {rsag: true, pprsag: true},
			{rsag: true, sp: true}, {rsag: true, sp: true, redo: true},
			{rsag: true, sp: true, pprsag: true}, {rsag: true, sp: true, redo: true, pprsag: true},
		}
		tpOverlaps = []TPOverlapMode{TPOverlapNone, TPOverlapPipe, TPOverlapRing}
		dpOverlaps = []bool{false, true}
		shards = []bool{false, true}
		fused = []bool{false, true}
	}
	if o.PinBeneficial {
		tpOverlaps = tpOverlaps[len(tpOverlaps)-1:]
		dpOverlaps = dpOverlaps[len(dpOverlaps)-1:]
		shards = shards[len(shards)-1:]
		fused = fused[len(fused)-1:]
	}
	offloads := [][3]bool{{false, false, false}}
	if o.HasMem2 && o.Features == FeatureAll {
		// 3-bit reflected Gray sequence over (weights, activations,
		// optimizer): one switch flips per step.
		offloads = [][3]bool{
			{false, false, false}, {false, false, true},
			{false, true, true}, {false, true, false},
			{true, true, false}, {true, true, true},
			{true, false, true}, {true, false, false},
		}
	}
	sizes := [7]int{
		len(recomputes), len(comms), len(tpOverlaps), len(dpOverlaps),
		len(shards), len(fused), len(offloads),
	}
	var idx [7]int
	dir := [7]int{1, 1, 1, 1, 1, 1, 1}
	for {
		cc := comms[idx[1]]
		off := offloads[idx[6]]
		v := s
		v.Recompute = recomputes[idx[0]]
		v.TPRSAG = cc.rsag
		v.SeqParallel = cc.sp
		v.TPRedoForSP = cc.redo
		v.PPRSAG = cc.pprsag
		v.TPOverlap = tpOverlaps[idx[2]]
		v.DPOverlap = dpOverlaps[idx[3]]
		v.OptimSharding = shards[idx[4]]
		v.FusedLayers = fused[idx[5]]
		v.WeightOffload = off[0]
		v.ActOffload = off[1]
		v.OptimOffload = off[2]
		if !yield(v) {
			return false
		}
		// Advance the deepest dimension that can still move in its current
		// direction, reflecting (reversing) every deeper one that cannot.
		// When no dimension can move, the space is exhausted.
		i := len(idx) - 1
		for i >= 0 {
			next := idx[i] + dir[i]
			if next >= 0 && next < sizes[i] {
				idx[i] = next
				break
			}
			dir[i] = -dir[i]
			i--
		}
		if i < 0 {
			return true
		}
	}
}

// SpaceSize counts the strategies Enumerate would generate without invoking
// a consumer, for reporting search-space sizes as in Fig. 6. It is
// closed-form — the per-triple leaf counts summed over the lattice — so it
// costs divisor arithmetic, not an enumeration pass;
// TestLatticeCountsConsistent pins it against the enumerator.
func (o EnumOptions) SpaceSize(m model.LLM) int { return o.LeafCount(m, o.Triples(m)) }

// LeafCount is the number of strategies under the given triples, the sum
// of their TripleLeafCount values: searches that already hold their triples
// size their space with it.
func (o EnumOptions) LeafCount(m model.LLM, triples [][3]int) int {
	total := 0
	for _, tpd := range triples {
		total += o.TripleLeafCount(m, tpd)
	}
	return total
}

// Validate checks the options themselves.
func (o EnumOptions) Validate() error {
	if o.Procs <= 0 {
		return fmt.Errorf("execution: enum procs must be positive, got %d", o.Procs)
	}
	if o.Features != "" && !o.Features.Valid() {
		return fmt.Errorf("execution: bad feature set %q", o.Features)
	}
	return nil
}
