package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made. Spans of one request share
// Req; Parent is the enclosing span's ID (0 for the request's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs call the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func noop() {}

// begin opens a span and returns its ID and the function that closes it.
func (t *tracer) begin(req, parent int, name string) (int, func()) {
	if t == nil {
		return 0, noop
	}
	start := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start})
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// meanMS is the mean duration of the spans with the given name.
func (t *tracer) meanMS(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum float64
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			sum += float64(s.End-s.Start) / 1e6
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// runtimeSample is a reading of the Go runtime's allocation and GC CPU
// counters.
type runtimeSample struct {
	allocs, allocBytes, gcCPU, totalCPU float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return runtimeSample{allocs: v[0], allocBytes: v[1], gcCPU: v[2], totalCPU: v[3]}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocs - b.allocs, a.allocBytes - b.allocBytes, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a runtimeSample) report(m metricSet, requests int) {
	n := float64(max(requests, 1))
	m.set("runtime.allocs_per_request", "count", a.allocs/n)
	m.set("runtime.alloc_kb_per_request", "KiB", a.allocBytes/1024/n)
	m.set("runtime.gc_cpu_frac", "ratio", a.gcCPU/a.totalCPU)
}

type profile struct {
	path string
	f    *os.File
}

func startProfile(path string) (*profile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profile{path: path, f: f}, nil
}

func (p *profile) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// cpuBuckets are the shares a CPU profile is reduced to: the calculon
// modules on the benchmark's paths, the garbage collector, and the rest.
var cpuBuckets = []string{
	"execution", "perf", "layers", "system", "comm", "search",
	"inference", "serving", "resultstore", "service", "runtime_gc", "other",
}

// profileShares reduces a CPU profile to cpuBuckets shares. A sample with a
// garbage-collector frame is charged to runtime_gc; otherwise to its
// innermost calculon/internal/<module> frame, other modules and samples
// without one going to other. It reads the stacks through
// `go tool pprof -traces`.
func profileShares(path string) (map[string]float64, int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w", err)
	}
	known := map[string]bool{}
	for _, b := range cpuBuckets {
		known[b] = true
	}
	shares := map[string]float64{}
	var total float64
	samples := 0
	// Each trace is a block between separator lines: the sample's value
	// and its leaf frame, then one caller frame per line.
	flush := func(value float64, frames []string) {
		if value <= 0 || len(frames) == 0 {
			return
		}
		samples++
		total += value
		shares[bucketOf(frames, known)] += value
	}
	var value float64
	var frames []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush(value, frames)
			value, frames = 0, frames[:0]
			continue
		}
		f := strings.Fields(line)
		switch {
		case len(f) == 0:
		case len(frames) == 0:
			// The header lines before the first trace fail to parse.
			if d, err := time.ParseDuration(f[0]); err == nil && len(f) >= 2 {
				value, frames = d.Seconds(), append(frames, f[1])
			}
		default:
			frames = append(frames, f[0])
		}
	}
	flush(value, frames)
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("cpu profile %s holds no samples", path)
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, samples, nil
}

func bucketOf(frames []string, known map[string]bool) string {
	for _, fn := range frames {
		if strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") ||
			strings.HasPrefix(fn, "runtime.bgscavenge") || strings.HasPrefix(fn, "runtime.markroot") {
			return "runtime_gc"
		}
	}
	for _, fn := range frames {
		if rest, ok := strings.CutPrefix(fn, "calculon/internal/"); ok {
			mod, _, _ := strings.Cut(rest, ".")
			if known[mod] {
				return mod
			}
		}
	}
	return "other"
}
