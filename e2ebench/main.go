// Command e2ebench is the repository's end-to-end benchmark. One
// invocation runs one workload:
//
//	e2ebench --workload paper-q4 --seed 1 --seconds 20 --trace 0
//
// It measures set-up in several fresh processes, runs the workload in a
// process of its own, checks every output, and prints one line per
// metric followed by a JSON summary as the last line of standard output.
// With --trace 1 it runs the workload twice more, untraced and traced,
// asserts that both produce identical outputs, and reports the per-layer
// metrics instead. See README.md for the metrics and workloads.
//
//	e2ebench compare [-bench BENCHMARK.json] OLD NEW
//
// compares two sets of result records instead (see compare.go).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "workload to run: paper-q4, fleet-year or serve-design")
		seed    = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Int("seconds", 20, "how long the workload measures")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from an extra traced run")
		child   = flag.String("child", "", "internal: run as a child process in this mode (setup, run, traced)")
	)
	flag.Parse()
	if _, ok := workloads[*name]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload one of %v, --seconds >= 1 and --trace 0 or 1\n", workloadNames())
		os.Exit(2)
	}
	if *child != "" {
		os.Exit(runChild(*child, *name, *seed, *seconds))
	}
	// A guard against a hung child, not a budget: the runs scale with
	// --seconds, paper-q4's with its virtual budget, and --trace 1 runs
	// the workload twice.
	deadline := 150*time.Second + 3*time.Duration(*seconds)*time.Second
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	code := orchestrate(ctx, *name, *seed, *seconds, *trace == 1)
	cancel()
	os.Exit(code)
}
