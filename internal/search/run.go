package search

import (
	"context"
	"time"
)

// Observer holds the observation fields search.Options and serving.Options
// share: the Progress counters flow into and its ticker (Progress.Watch).
type Observer struct {
	Progress   *Progress
	OnProgress func(ProgressSnapshot)
	Interval   time.Duration
}

// Run is the envelope of every search entry point — Execution,
// ExecutionShard and serving.Search. It attaches a Progress (a fresh one
// when only OnProgress is set), marks it started and watches it. A verdict
// lookup finds is returned whole and leaves one StoreHits as its only trace
// on the live counters, which count work this process did. Otherwise search
// runs, and save records its verdict unless it failed or ctx was cancelled:
// a cancelled walk covers an unpredictable prefix of the space. A nil
// lookup bypasses the store.
//
// search receives the attached Progress, nil when the caller observes
// nothing. A search with one adds the size of its space to it, for the
// ETA, before it evaluates anything.
func Run[R any](ctx context.Context, obs Observer, lookup func() (R, bool), save func(R), search func(prog *Progress) (R, error)) (R, error) {
	prog := obs.Progress
	if prog == nil && obs.OnProgress != nil {
		prog = &Progress{}
	}
	if prog != nil {
		prog.MarkStart()
	}
	defer prog.Watch(ctx, obs.OnProgress, obs.Interval)()
	if lookup != nil {
		if res, ok := lookup(); ok {
			if prog != nil {
				prog.AddCounts(Counts{StoreHits: 1})
			}
			return res, nil
		}
	}
	res, err := search(prog)
	if lookup != nil && err == nil && ctx.Err() == nil {
		save(res)
	}
	return res, err
}
