package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// workload is one benchmark input set, driven only through the public
// seams of core, scenario, serve and session.
type workload interface {
	// setup does everything a user pays before the first timed
	// operation. t is nil for an untraced run.
	setup(seed uint64, t *tracer) error
	// run measures for about the given duration (a workload whose unit of
	// work is longer finishes its unit) and checks its outputs.
	run(ctx context.Context, d time.Duration) (*childResult, error)
	// close releases what setup acquired.
	close() error
}

var workloads = map[string]func() workload{
	"paper-q4":     func() workload { return &paperQ4{} },
	"fleet-year":   func() workload { return &fleetYear{} },
	"serve-design": func() workload { return &serveDesign{} },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// check is one correctness assertion on a run's outputs.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func checkf(ok bool, name, format string, args ...any) check {
	return check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)}
}

// childResult is what a child process reports to the orchestrator on its
// standard output.
type childResult struct {
	// ReadyNS is the wall clock (Unix ns) at which set-up finished.
	ReadyNS int64 `json:"ready_ns"`
	// Attempted and Failed count the workload's operations: BO cycles,
	// member-days or round trips.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// OpsPerS is the workload's throughput and OpLatencyMS the raw
	// per-operation latencies the percentiles are taken from.
	OpsPerS     float64   `json:"ops_per_s"`
	OpLatencyMS []float64 `json:"op_latency_ms"`
	// Figures are the workload's own named results (cycles_in_budget,
	// days_per_min, roundtrip_p90_ms, ...).
	Figures map[string]float64 `json:"figures"`
	// MaxRSSKB is the process's peak resident set (VmHWM) in kilobytes,
	// read when the timed phase ends: checking the outputs and encoding
	// the raw samples afterwards is the benchmark's own work.
	MaxRSSKB int64 `json:"max_rss_kb"`
	// Samples holds further raw samples behind the figures.
	Samples map[string][]float64 `json:"samples,omitempty"`
	// Layers holds per-layer metrics (traced run) and runtime counters.
	Layers map[string]float64 `json:"layers"`
	// Fingerprints hash the outputs of each unit of work (the prefix, a
	// fleet year, a session's design) by its name; traced and untraced
	// runs must agree on every unit both completed.
	Fingerprints map[string]string `json:"fingerprints"`
	Checks       []check           `json:"checks"`
	Params       map[string]any    `json:"params"`
}

func runChild(mode, name string, seed uint64, seconds int) int {
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "e2ebench %s %s: %v\n", name, mode, err)
		return 1
	}
	var t *tracer
	if mode == "traced" {
		t = newTracer()
	}
	w := workloads[name]()
	res := &childResult{}
	err := w.setup(seed, t)
	ready := time.Now().UnixNano()
	if err == nil && mode != "setup" {
		res, err = measure(w, t, name, seconds)
	}
	if cerr := w.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fail(err)
	}
	res.ReadyNS = ready
	return emit(res)
}

// measure runs a set-up workload, adds the runtime counters and writes
// the traced run's spans.
func measure(w workload, t *tracer, name string, seconds int) (*childResult, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := w.run(context.Background(), time.Duration(seconds)*time.Second)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	if res.Layers == nil {
		res.Layers = map[string]float64{}
	}
	if ops := res.Attempted - res.Failed; ops > 0 {
		res.Layers["runtime.alloc_mb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / float64(ops)
	}
	res.Layers["runtime.gc_count"] = float64(after.NumGC - before.NumGC)
	if t != nil {
		dir := filepath.Join(outDir(), "traces")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if err := t.write(filepath.Join(dir, name+".jsonl")); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// peakRSSKB returns the process's peak resident set so far, in kilobytes.
func peakRSSKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

func emit(r *childResult) int {
	if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	return 0
}

// outDir is where builds, results, traces and snapshots go: inside the
// checkout, and ignored by git.
func outDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}
