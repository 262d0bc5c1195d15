package service

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"calculon/internal/search"
)

// TestEvictionFollowsSubmitOrder registers jobs across the job-999999 →
// job-1000000 boundary, where string order and submit order disagree, and
// checks that eviction drops the oldest terminal job first, never evicts a
// queued or running one, and that Jobs lists in submit order.
func TestEvictionFollowsSubmitOrder(t *testing.T) {
	m := &Manager{jobs: make(map[string]*Job), fleet: &search.Progress{}, seq: 999_000}
	register := func() *Job {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.registerLocked(prepared{})
	}
	finish := func(j *Job) { j.finish(StateDone, &JobResult{}, nil) }

	queued := register()
	running := register()
	running.tryStart(func() {}, 1)
	for i := 2; i < maxRetainedJobs; i++ {
		finish(register())
	}
	if got := len(m.Jobs()); got != maxRetainedJobs {
		t.Fatalf("registry holds %d jobs, want %d before any eviction", got, maxRetainedJobs)
	}
	oldestTerminal := m.Jobs()[2]
	if oldestTerminal.ID != "job-999003" {
		t.Fatalf("third job is %s, want job-999003", oldestTerminal.ID)
	}

	// One past the bound: exactly the oldest terminal job goes.
	newest := register()
	if newest.ID != "job-1000025" {
		t.Fatalf("newest job is %s, want job-1000025", newest.ID)
	}
	if _, ok := m.Job(oldestTerminal.ID); ok {
		t.Errorf("%s (oldest terminal) survived eviction", oldestTerminal.ID)
	}
	for _, j := range []*Job{queued, running, newest} {
		if _, ok := m.Job(j.ID); !ok {
			t.Errorf("%s (%s) was evicted", j.ID, j.State())
		}
	}
	if _, ok := m.Job("job-1000000"); !ok {
		t.Error("job-1000000 was evicted before older terminal jobs")
	}

	// Many more: the registry stays at the bound, the two live jobs stay,
	// and the listing is the submit order.
	finish(newest)
	for i := 0; i < 2*maxRetainedJobs; i++ {
		finish(register())
	}
	jobs := m.Jobs()
	if len(jobs) != maxRetainedJobs || len(m.jobs) != maxRetainedJobs {
		t.Fatalf("registry holds %d listed / %d mapped jobs, want %d", len(jobs), len(m.jobs), maxRetainedJobs)
	}
	if jobs[0] != queued || jobs[1] != running {
		t.Errorf("live jobs not kept at the front: got %s, %s", jobs[0].ID, jobs[1].ID)
	}
	// The terminal jobs still listed are the newest ones, consecutive.
	for i := 2; i < len(jobs); i++ {
		want := fmt.Sprintf("job-%06d", m.seq-len(jobs)+i+1)
		if jobs[i].ID != want || m.jobs[want] != jobs[i] {
			t.Fatalf("listing[%d] = %s, want %s in the registry", i, jobs[i].ID, want)
		}
	}
}

// TestSubmitRacingDrainIsRefused runs a whole drain after Submit has
// prepared its spec and before it takes the manager lock. The submit must
// be refused: before the fix it passed the intake check first and pushed a
// job after the drain had emptied the queue, so the client got a queued
// job that never ran and the queued gauge stuck at 1.
func TestSubmitRacingDrainIsRefused(t *testing.T) {
	m := NewManager(2, 1, 4)
	m.admitting = func() { m.Drain(context.Background()) }
	if st, err := m.Submit(validSpec()); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during a drain = (%+v, %v), want ErrDraining", st, err)
	}
	if q := m.metrics.queued.Load(); q != 0 {
		t.Errorf("queued gauge is %d after the drain, want 0", q)
	}
	if jobs := m.Jobs(); len(jobs) != 0 {
		t.Errorf("a refused submit left %d jobs registered", len(jobs))
	}
}
