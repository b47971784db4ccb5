// Command pbolint enforces the project's determinism, parallelism and
// numeric-safety invariants with stdlib-only static analyzers (run
// `pbolint -list` for the roster):
//
//	norand          randomness flows through internal/rng streams only
//	noprint         internal/ library packages never print
//	floatcmp        no ==/!= on floats outside internal/fp helpers
//	godiscipline    no bare go statements outside internal/parallel
//	errcheck        no discarded error returns
//	ctxfirst        context.Context first in signatures, never in structs
//	pooldiscipline  sync.Pool values are Put on every path, never escape
//	locksafe        no guarded pointer leaves its critical section alive
//	detorder        no map-order, wall-clock or rng-in-parallel dependence
//	unusedexport    no export under internal/ without a non-test or cross-package consumer
//
// Usage:
//
//	pbolint [-only norand,floatcmp] [-json] [-suppressions] [packages...]
//
// Packages are directories or dir/... patterns; the default is ./...
// relative to the current directory. Diagnostics print as
// file:line:col: analyzer: message, or as one JSON report object under
// -json — a stable schema: analyzers, diagnostics (each with file, line,
// col, analyzer, message), suppressed count, type_errors count,
// exit_code. -suppressions instead inventories every live //lint:ignore
// directive — the waiver surface CI budgets against.
//
// Exit status: 0 clean, 1 findings reported, 2 on usage errors, load
// errors, or type-check errors. Type errors are non-fatal to the
// analysis itself — findings on the information that survived still
// print, so one broken file does not hide findings elsewhere — but a
// partially checked tree must not pass as clean, hence the 2.
//
// False positives are silenced in source with a reasoned directive on or
// directly above the offending line:
//
//	//lint:ignore floatcmp sentinel check is bit-exact by design
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonDiagnostic is one finding in the -json report. The field set is
// the tool's machine-readable contract; the CLI tests pin it.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonReport is the -json output: one object per run.
type jsonReport struct {
	Analyzers   []string         `json:"analyzers"`
	Diagnostics []jsonDiagnostic `json:"diagnostics"`
	Suppressed  int              `json:"suppressed"`
	TypeErrors  int              `json:"type_errors"`
	ExitCode    int              `json:"exit_code"`
}

func run(args []string, stdout, stderr io.Writer) int {
	// Diagnostics go to stdout; a write failure there (say, a closed
	// pipe) is collected and turns into exit status 2. Messages to
	// stderr are best-effort — there is nowhere left to report their
	// failure — hence the reasoned errcheck suppressions.
	var stdoutErr error
	printf := func(format string, a ...any) {
		if _, err := fmt.Fprintf(stdout, format, a...); err != nil && stdoutErr == nil {
			stdoutErr = err
		}
	}
	warnf := func(format string, a ...any) {
		//lint:ignore errcheck stderr is the last resort; its failure has no further destination
		fmt.Fprintf(stderr, format, a...)
	}

	fs := flag.NewFlagSet("pbolint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated subset of analyzers to run (default: all)")
	list := fs.Bool("list", false, "list the available analyzers and exit")
	asJSON := fs.Bool("json", false, "emit a single JSON report object instead of text lines")
	suppressions := fs.Bool("suppressions", false, "inventory live //lint:ignore directives instead of running analyzers")
	fs.Usage = func() {
		warnf("usage: pbolint [-list] [-only analyzers] [-json] [-suppressions] [packages...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	exit := func(code int) int {
		if stdoutErr != nil {
			warnf("pbolint: writing output: %v\n", stdoutErr)
			return 2
		}
		return code
	}
	if *list {
		for _, a := range analysis.All() {
			printf("%-14s %s\n", a.Name, a.Doc)
		}
		return exit(0)
	}
	analyzers, err := analysis.ByName(*only)
	if err != nil {
		warnf("pbolint: %v\n", err)
		return 2
	}
	pkgs, err := analysis.NewLoader().Load(fs.Args()...)
	if err != nil {
		warnf("pbolint: %v\n", err)
		return 2
	}

	if *suppressions {
		return exit(printSuppressions(pkgs, *asJSON, printf, warnf))
	}

	report := jsonReport{Diagnostics: []jsonDiagnostic{}}
	for _, a := range analyzers {
		report.Analyzers = append(report.Analyzers, a.Name)
	}
	for _, pkg := range pkgs {
		for _, e := range pkg.TypeErrors {
			report.TypeErrors++
			warnf("pbolint: warning: %s: %v\n", pkg.Path, e)
		}
		res := analysis.RunPackage(pkg, analyzers)
		report.Suppressed += len(res.Suppressed)
		for _, d := range res.Diagnostics {
			report.Diagnostics = append(report.Diagnostics, jsonDiagnostic{
				File:     filepath.ToSlash(d.Pos.Filename),
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
			if !*asJSON {
				printf("%s\n", d)
			}
		}
	}
	switch {
	case report.TypeErrors > 0:
		report.ExitCode = 2
	case len(report.Diagnostics) > 0:
		report.ExitCode = 1
	}
	if *asJSON {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			warnf("pbolint: %v\n", err)
			return 2
		}
		printf("%s\n", data)
	}
	return exit(report.ExitCode)
}

// printSuppressions writes the cross-package waiver inventory, sorted by
// file and line: one line per directive in text mode, a JSON array under
// -json. The inventory itself always exits 0 — growth is judged by the
// caller (scripts/check.sh) against the checked-in budget.
func printSuppressions(pkgs []*analysis.Package, asJSON bool, printf, warnf func(string, ...any)) int {
	inventory := []analysis.Suppression{}
	seen := map[string]bool{}
	for _, pkg := range pkgs {
		for _, s := range analysis.Suppressions(pkg) {
			s.File = filepath.ToSlash(s.File)
			key := fmt.Sprintf("%s:%d", s.File, s.Line)
			if seen[key] {
				continue
			}
			seen[key] = true
			inventory = append(inventory, s)
		}
	}
	sort.Slice(inventory, func(i, j int) bool {
		if inventory[i].File != inventory[j].File {
			return inventory[i].File < inventory[j].File
		}
		return inventory[i].Line < inventory[j].Line
	})
	if asJSON {
		data, err := json.MarshalIndent(inventory, "", "  ")
		if err != nil {
			warnf("pbolint: %v\n", err)
			return 2
		}
		printf("%s\n", data)
		return 0
	}
	for _, s := range inventory {
		printf("%s:%d: %s: %s\n", s.File, s.Line, strings.Join(s.Analyzers, ","), s.Reason)
	}
	return 0
}
