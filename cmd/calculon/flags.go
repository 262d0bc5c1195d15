package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux for -pprof
	"os"
	"runtime/pprof"
	"time"

	"calculon/internal/resultstore"
	"calculon/internal/search"
	"calculon/internal/units"
)

// parseBytes adapts units.ParseBytes for flag values.
func parseBytes(s string) (units.Bytes, error) { return units.ParseBytes(s) }

// bps converts a raw float flag to a bandwidth.
func bps(v float64) units.BytesPerSec { return units.BytesPerSec(v) }

// runtimeFlags are the observability and lifecycle flags shared by every
// long-running subcommand: a wall-clock timeout, a live progress ticker on
// stderr, and profiling hooks.
type runtimeFlags struct {
	timeout    time.Duration
	progress   time.Duration
	pprofAddr  string
	cpuprofile string
	workers    int
	store      string
}

// addRuntime registers the runtime flags on a subcommand's FlagSet.
func addRuntime(fs *flag.FlagSet) *runtimeFlags {
	r := &runtimeFlags{}
	fs.DurationVar(&r.timeout, "timeout", 0, "abort after this long, reporting partial progress (0 = no limit)")
	fs.DurationVar(&r.progress, "progress", 0, "print a live progress line to stderr at this interval (0 = off)")
	fs.StringVar(&r.pprofAddr, "pprof", "", "serve net/http/pprof on this address, e.g. localhost:6060")
	fs.StringVar(&r.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.IntVar(&r.workers, "workers", 0, "total worker budget for searches and sweeps (0 = GOMAXPROCS)")
	fs.StringVar(&r.store, "store", "", "persistent result store (JSONL): searches consult it before evaluating and append fresh verdicts (empty disables)")
	return r
}

// openStore opens the persistent result store named by -store and hands it
// to wire, which attaches it to the search options (the training search
// takes the store itself, the serving search its ServingCache view). Without
// -store wire is not called, and the options' nil Cache is what bypasses the
// store. The returned close function flushes the
// pending batch; its error must reach the user — a verdict that never hit
// disk is a cache that silently re-pays the walk next run.
func (r *runtimeFlags) openStore(wire func(*resultstore.Store)) (func() error, error) {
	if r.store == "" {
		return func() error { return nil }, nil
	}
	st, err := resultstore.Open(r.store)
	if err != nil {
		return nil, err
	}
	if s := st.Stats(); s.Stale > 0 || s.RecoveredBytes > 0 {
		fmt.Fprintf(os.Stderr, "calculon: store %s: %d rows (%d stale, recovered from %d truncated bytes)\n",
			r.store, s.Rows, s.Stale, s.RecoveredBytes)
	}
	wire(st)
	return st.Close, nil
}

// apply derives the command's context from the timeout and starts the
// profiling hooks. The returned cleanup must run before the command exits;
// it stops the CPU profile and releases the timeout.
func (r *runtimeFlags) apply(ctx context.Context) (context.Context, func(), error) {
	cancel := func() {}
	if r.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, r.timeout)
	}
	if r.pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(r.pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "calculon: pprof server: %v\n", err)
			}
		}()
	}
	stopProfile := func() {}
	if r.cpuprofile != "" {
		f, err := os.Create(r.cpuprofile)
		if err != nil {
			cancel()
			return ctx, nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			if cerr := f.Close(); cerr != nil {
				err = fmt.Errorf("%w (closing profile file: %v)", err, cerr)
			}
			cancel()
			return ctx, nil, fmt.Errorf("cpuprofile: %w", err)
		}
		stopProfile = func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "calculon: cpuprofile: %v\n", err)
			}
		}
	}
	return ctx, func() {
		stopProfile()
		cancel()
	}, nil
}

// attachProgress wires the runtime flags' observability into search options:
// a shared Progress for partial-result reporting (the searches add their
// space sizes to it for ETAs), and — when -progress is set — a stderr
// ticker.
func (r *runtimeFlags) attachProgress(opts *search.Options, prog *search.Progress) {
	opts.Progress = prog
	opts.Workers = r.workers
	if r.progress > 0 {
		opts.ProgressInterval = r.progress
		opts.OnProgress = func(s search.ProgressSnapshot) {
			fmt.Fprintf(os.Stderr, "calculon: %s\n", s)
		}
	}
}
