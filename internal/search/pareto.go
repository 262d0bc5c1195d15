package search

import "slices"

// ParetoFold is the Pareto fold both searches share: the training search's
// time-versus-memory front (Fig. 5) and the serving search's three-objective
// frontier. The caller supplies its order — strict and total, ending in the
// sequence number, and ranking a point ahead of every point it strictly
// dominates — and its dominance test, which is weak: points equal on all
// objectives dominate each other.
//
// The front is every point that no point both weakly dominates and comes
// before, so ties on all objectives keep the lowest seq. That set does not
// depend on arrival order, splits or merges, which keeps fronts identical
// across worker counts and shards. The fold holds exactly the front seen so
// far, unordered, and compares through pointers: a dominated candidate
// costs one copy into the buffer and no sort.
type ParetoFold[T any] struct {
	before    func(a, b *T) int
	dominates func(a, b *T) bool
	pts       []T
}

// NewParetoFold returns an empty fold over the given order and dominance
// test.
func NewParetoFold[T any](before func(a, b *T) int, dominates func(a, b *T) bool) ParetoFold[T] {
	return ParetoFold[T]{before: before, dominates: dominates}
}

// beats reports whether q keeps p off the front.
func (f *ParetoFold[T]) beats(q, p *T) bool {
	return f.dominates(q, p) && f.before(q, p) < 0
}

// Push offers one candidate. One pass over the kept points evicts those it
// beats, moving the last kept point into each hole, and drops the candidate
// as soon as a kept point beats it; that point beats the evicted ones too.
func (f *ParetoFold[T]) Push(c T) {
	f.pts = append(f.pts, c)
	n := len(f.pts) - 1
	p := &f.pts[n]
	end := n
	for k := 0; k < end; {
		q := &f.pts[k]
		if f.beats(q, p) {
			f.pts = f.pts[:end]
			return
		}
		if f.beats(p, q) {
			end--
			*q = f.pts[end]
			continue
		}
		k++
	}
	f.pts[end] = *p
	f.pts = f.pts[:end+1]
}

// Front returns the front in order as a new exact-length slice (nil when
// empty): finished fronts outlive the search in the daemon registry and the
// store index. It sorts indices, so each point is copied once.
func (f *ParetoFold[T]) Front() []T {
	if len(f.pts) == 0 {
		return nil
	}
	idx := make([]int, len(f.pts))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(i, j int) int { return f.before(&f.pts[i], &f.pts[j]) })
	out := make([]T, len(idx))
	for k, i := range idx {
		out[k] = f.pts[i]
	}
	return out
}
