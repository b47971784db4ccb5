package main

// The compare mode sets two sets of result records side by side, for
// example the parent commit's and a change's:
//
//	e2ebench compare [-bench BENCHMARK.json] OLD NEW
//
// OLD and NEW are directories or files of the records e2ebench writes
// under .bench_build/results. For every workload and end-to-end metric it
// prints both sides' median and quartiles and a verdict:
//
//	regressed   the new median is worse than the old by more than the bound
//	better      the new median is better by more than the old runs' own
//	            quartile spread, and new beats old in at least 9 of 10 pairs
//	same        neither: the difference is within the bound
//	unresolved  a side's spread is wider than the bound, so "same" would be
//	            a guess (unless every new run beats every old run)
//
// It exits 1 if any metric regressed. Only untraced records are compared;
// traced runs carry per-layer metrics, which have no bound. The mode uses
// the standard library only.

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkSpec holds the parts of BENCHMARK.json the benchmark reads.
type benchmarkSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readBenchmarkSpec(path string) (*benchmarkSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkSpec
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// samples maps workload → metric → one value per record.
type samples map[string]map[string][]float64

func loadRecords(path string) (samples, error) {
	files := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	out := samples{}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Trace || len(r.Runs) == 0 || r.Runs[0].Mode != "run" {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for k, v := range r.Runs[0].Metrics {
			out[r.Workload][k] = append(out[r.Workload][k], v)
		}
	}
	return out, nil
}

// side summarizes one side's runs of one metric.
type side struct {
	median, q1, q3 float64
}

func summarize(xs []float64) (side, error) {
	q1, q3, err := quartiles(xs)
	if err != nil {
		return side{}, err
	}
	return side{median(xs), q1, q3}, nil
}

func (s side) spread() float64 { return (s.q3 - s.q1) / s.median }

// comparison is one metric's verdict. gain is the relative change of the
// median, positive when the new side is better.
type comparison struct {
	old, cur side
	gain     float64
	verdict  string
}

// compareMetric applies the comparison rules to one metric.
func compareMetric(m metricSpec, base, cur []float64) (comparison, error) {
	o, err := summarize(base)
	if err != nil {
		return comparison{}, err
	}
	n, err := summarize(cur)
	if err != nil {
		return comparison{}, err
	}
	sign := 1.0 // +1 when higher is better
	if m.Better == "lower" {
		sign = -1
	}
	c := comparison{old: o, cur: n, gain: sign * (n.median - o.median) / o.median}
	wins, pairs := 0, 0
	for _, a := range base {
		for _, b := range cur {
			pairs++
			if sign*(b-a) > 0 {
				wins++
			}
		}
	}
	beyondSpread := c.gain*o.median > o.q3-o.q1
	switch {
	case o.spread() > m.Bound || n.spread() > m.Bound:
		c.verdict = "unresolved"
		if wins == pairs && beyondSpread {
			c.verdict = "better"
		}
	case -c.gain > m.Bound:
		c.verdict = "regressed"
	case beyondSpread && float64(wins) >= 0.9*float64(pairs):
		c.verdict = "better"
	default:
		c.verdict = "same"
	}
	return c, nil
}

// compareSets writes the comparison table and reports whether any metric
// regressed.
func compareSets(w io.Writer, bench *benchmarkSpec, old, cur samples) (regressed bool, err error) {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	row := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(tw, format, args...)
		}
	}
	row("workload\tmetric\told median [q1, q3] (n)\tnew median [q1, q3] (n)\tgain\tbound\tverdict\n")
	var names []string
	for k := range old {
		if _, ok := cur[k]; ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, wl := range names {
		for _, m := range bench.EndToEnd {
			a, c := old[wl][m.Name], cur[wl][m.Name]
			if len(a) < 2 || len(c) < 2 {
				row("%s\t%s\t(%d runs)\t(%d runs)\t\t%.3g\tneed two runs a side\n", wl, m.Name, len(a), len(c), m.Bound)
				continue
			}
			r, cerr := compareMetric(m, a, c)
			if cerr != nil {
				return false, cerr
			}
			row("%s\t%s\t%.6g [%.6g, %.6g] (%d)\t%.6g [%.6g, %.6g] (%d)\t%+.2f%%\t%.3g\t%s\n",
				wl, m.Name, r.old.median, r.old.q1, r.old.q3, len(a), r.cur.median, r.cur.q1, r.cur.q3, len(c), 100*r.gain, m.Bound, r.verdict)
			regressed = regressed || r.verdict == "regressed"
		}
	}
	if err == nil {
		err = tw.Flush()
	}
	if err == nil {
		_, err = io.WriteString(w, b.String())
	}
	return regressed, err
}

// compareMain runs the compare mode on its arguments and returns the
// exit code: 0, 1 if a metric regressed, 2 on a usage or input error.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the metrics' bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: e2ebench compare [-bench BENCHMARK.json] OLD NEW (directories or files of result records)")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "e2ebench compare:", err)
		return 2
	}
	bench, err := readBenchmarkSpec(*benchPath)
	if err != nil {
		return fail(err)
	}
	old, err := loadRecords(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	cur, err := loadRecords(fs.Arg(1))
	if err != nil {
		return fail(err)
	}
	regressed, err := compareSets(os.Stdout, bench, old, cur)
	if err != nil {
		return fail(err)
	}
	if regressed {
		return 1
	}
	return 0
}
