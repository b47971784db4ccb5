package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupRuns is how many fresh processes set-up time is measured in; the
// median of a few process starts is steady where one start is not.
const setupRuns = 15

// Set-up time is mostly process start on fleet-year and serve-design
// (about 3 ms), and how fast the shared host starts processes changes
// in phases of minutes: in eight batches of eleven starts the fleet-year
// set-up median ran 2.5–3.4 ms while its ratio to the start time of
// startprobe, a Go program that runs no code of the repository, stayed
// within ±12%. Each set-up process is therefore paired with a start of
// startprobe, and setup_s is the set-up median scaled by
// startRefS ÷ the startprobe median, as probe.go scales the other
// wall-clock figures. A change to the program moves the scaled figure by
// the same share as the raw one, which is recorded beside it.

// startRefS is startprobe's start-to-exit time, in seconds, that counts
// as reference speed: a round figure near its quickest medians on a
// shared 2-core x86 host (1.2 ms; up to 3.5 ms in a contended phase).
const startRefS = 0.001

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the workload sees, reported on every
// workload (README.md says what an operation is on each).
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"success_rate", "ratio"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reads 0 there, next to trace.ops, the base of every per-op
// figure.
var perLayer = []metricDef{
	{"trace.ops", "count"},
	{"trace.overhead_pct", "%"},
	{"core.cycles_per_op", "count"},
	{"core.ask_self_ms", "ms"},
	{"core.tell_ms", "ms"},
	{"gp.fit_ms_per_op", "ms"},
	{"gp.predict_calls_per_op", "count"},
	{"gp.predict_us", "us"},
	{"strategy.propose_ms_per_op", "ms"},
	{"acq.pof_calls_per_op", "count"},
	{"acq.fallback_ratio", "ratio"},
	{"uphes.evals_per_op", "count"},
	{"uphes.eval_us", "us"},
	{"scenario.commit_ms_per_op", "ms"},
	{"scenario.optimized_day_ratio", "ratio"},
	{"parallel.member_utilization", "ratio"},
	{"serve.handler_ms", "ms"},
	{"serve.transport_ms", "ms"},
	{"session.roundtrip_ms", "ms"},
	{"session.roundtrip_nostore_ms", "ms"},
	{"snapshot.save_ms", "ms"},
	{"snapshot.encode_ms", "ms"},
	{"snapshot.bytes_per_save", "B"},
	{"session.snapshots_per_roundtrip", "count"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_count", "count"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// childRun is one child process's report plus what the kernel says
// about it.
type childRun struct {
	res     *childResult
	spawnNS int64
	cpuS    float64 // user + system CPU time
}

func spawn(ctx context.Context, mode, name string, seed uint64, seconds int) (*childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "--child", mode, "--workload", name,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	spawned := time.Now().UnixNano()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w", mode, err)
	}
	var r childResult
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("%s child output: %w", mode, err)
	}
	run := &childRun{res: &r, spawnNS: spawned}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		run.cpuS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	return run, nil
}

// endToEndMetrics derives the end-to-end metrics from one measured run.
func endToEndMetrics(r *childRun, setupS float64) (map[string]float64, error) {
	lat := sortedCopy(r.res.OpLatencyMS)
	tail, err := tailPercentile(len(lat))
	if err != nil {
		return nil, fmt.Errorf("%d latency samples: %w", len(lat), err)
	}
	if r.res.Attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	return map[string]float64{
		"ops_per_s":    r.res.OpsPerS,
		"op_p50_ms":    percentile(lat, 50),
		"op_tail_ms":   percentile(lat, tail),
		"setup_s":      setupS,
		"peak_rss_mb":  float64(r.res.MaxRSSKB) / 1024,
		"success_rate": float64(r.res.Attempted-r.res.Failed) / float64(r.res.Attempted),
	}, nil
}

func orchestrate(ctx context.Context, name string, seed uint64, seconds int, traced bool) int {
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "e2ebench %s: %v\n", name, err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	probe := filepath.Join(filepath.Dir(exe), "startprobe")
	var setups, starts []float64
	for range setupRuns {
		start := time.Now()
		if err := exec.CommandContext(ctx, probe).Run(); err != nil {
			return fail(fmt.Errorf("start probe (built beside the benchmark by run.sh): %w", err))
		}
		starts = append(starts, time.Since(start).Seconds())
		r, err := spawn(ctx, "setup", name, seed, seconds)
		if err != nil {
			return fail(err)
		}
		setups = append(setups, float64(r.res.ReadyNS-r.spawnNS)/1e9)
	}
	startSpeed := startRefS / median(starts)
	setupS := median(setups) * startSpeed

	run, err := spawn(ctx, "run", name, seed, seconds)
	if err != nil {
		return fail(err)
	}
	e2e, err := endToEndMetrics(run, setupS)
	if err != nil {
		return fail(err)
	}
	run.res.Figures["setup_s_raw"] = median(setups)
	run.res.Figures["start_speed"] = startSpeed
	checks := run.res.Checks
	rec := &record{
		Provenance: provenance(),
		Workload:   name,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      traced,
		Params:     run.res.Params,
		SetupS:     setups,
		StartS:     starts,
		Runs:       []runRecord{{Mode: "run", CPUS: run.cpuS, Result: run.res, Metrics: e2e}},
	}

	out := summary{Attempted: run.res.Attempted, Failed: run.res.Failed, Metrics: map[string]metricValue{}}
	if !traced {
		for _, m := range endToEnd {
			out.Metrics[m.name] = metricValue{e2e[m.name], m.unit}
		}
	} else {
		tr, err := spawn(ctx, "traced", name, seed, seconds)
		if err != nil {
			return fail(err)
		}
		te2e, err := endToEndMetrics(tr, setupS)
		if err != nil {
			return fail(err)
		}
		rec.Runs = append(rec.Runs, runRecord{Mode: "traced", CPUS: tr.cpuS, Result: tr.res, Metrics: te2e})
		for _, c := range tr.res.Checks {
			c.Name = "traced: " + c.Name
			checks = append(checks, c)
		}
		checks = append(checks, sameOutputs(run.res.Fingerprints, tr.res.Fingerprints))
		layers := tr.res.Layers
		// Allocation and GC counts come from the untraced run: the
		// tracer's own spans would inflate them.
		for _, k := range []string{"runtime.alloc_mb_per_op", "runtime.gc_count"} {
			layers[k] = run.res.Layers[k]
		}
		layers["trace.overhead_pct"] = 100 * (e2e["ops_per_s"] - te2e["ops_per_s"]) / e2e["ops_per_s"]
		for _, m := range perLayer {
			out.Metrics[m.name] = metricValue{layers[m.name], m.unit}
		}
	}
	out.Correct = true
	for _, c := range checks {
		out.Correct = out.Correct && c.OK
	}
	rec.Checks, rec.Correct = checks, out.Correct
	if err := rec.write(); err != nil {
		return fail(err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return fail(err)
	}
	fmt.Print(report(name, run.res, e2e, checks, out))
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// sameOutputs asserts that the traced run reproduced the untraced run's
// outputs on every unit of work both completed.
func sameOutputs(untraced, traced map[string]string) check {
	common, diff := 0, 0
	for k, v := range untraced {
		if w, ok := traced[k]; ok {
			common++
			if v != w {
				diff++
			}
		}
	}
	return checkf(common > 0 && diff == 0, "traced outputs identical to untraced",
		"%d of %d common units differ", diff, common)
}

// report is the human-readable part of the output: checks, the
// workload's own figures and every metric by name and unit.
func report(name string, r *childResult, e2e map[string]float64, checks []check, out summary) string {
	var w strings.Builder
	fmt.Fprintf(&w, "workload %s: %d operations attempted, %d failed\n", name, r.Attempted, r.Failed)
	for _, c := range checks {
		mark := "ok  "
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(&w, "  check %s %s (%s)\n", mark, c.Name, c.Detail)
	}
	for _, k := range sortedKeys(r.Figures) {
		fmt.Fprintf(&w, "  figure %-28s %14.6g\n", k, r.Figures[k])
	}
	for _, m := range endToEnd {
		fmt.Fprintf(&w, "  %-34s %14.6g %s\n", m.name, e2e[m.name], m.unit)
	}
	if _, ok := out.Metrics["trace.ops"]; ok {
		for _, m := range perLayer {
			fmt.Fprintf(&w, "  layer %-28s %14.6g %s\n", m.name, out.Metrics[m.name].Value, m.unit)
		}
	}
	return w.String()
}

// hash64 is a running 64-bit FNV-1a hash (the hash/fnv New64a
// function); unlike a hash.Hash its writes cannot fail.
type hash64 uint64

func newHash64() hash64 { return 14695981039346656037 }

func (h *hash64) bytes(b []byte) {
	for _, c := range b {
		*h = (*h ^ hash64(c)) * 1099511628211
	}
}

// floats hashes the bit patterns of xs, each little-endian.
func (h *hash64) floats(xs []float64) {
	var b [8]byte
	for _, x := range xs {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.bytes(b[:])
	}
}

func (h hash64) String() string { return fmt.Sprintf("%016x", uint64(h)) }

// fingerprint hashes the bit patterns of a float sequence.
func fingerprint(xs []float64) string {
	h := newHash64()
	h.floats(xs)
	return h.String()
}

// record is one invocation's result file: provenance, parameters, every
// raw sample and the checks.
type record struct {
	Provenance map[string]any `json:"provenance"`
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      bool           `json:"trace"`
	Params     map[string]any `json:"params"`
	SetupS     []float64      `json:"setup_s_samples"`
	StartS     []float64      `json:"start_probe_s_samples"`
	Runs       []runRecord    `json:"runs"`
	Checks     []check        `json:"checks"`
	Correct    bool           `json:"correct"`
}

type runRecord struct {
	Mode    string             `json:"mode"`
	CPUS    float64            `json:"cpu_s"`
	Metrics map[string]float64 `json:"metrics"`
	Result  *childResult       `json:"result"`
}

func (r *record) write() error {
	dir := filepath.Join(outDir(), "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t := 0
	if r.Trace {
		t = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d-%d.json", r.Workload, r.Seed, t, time.Now().UnixNano()))
	raw, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// provenance names what produced a result.
func provenance() map[string]any {
	p := map[string]any{
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"commit":     "unknown",
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			p["commit"] = strings.TrimSpace(string(out))
		}
	}
	return p
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
