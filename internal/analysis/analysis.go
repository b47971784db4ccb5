// Package analysis is a small stdlib-only static-analysis framework plus
// the project analyzers enforced by cmd/pbolint (run `pbolint -list` for
// the current roster — this comment deliberately avoids a count that
// would rot). The paper's experimental claims rest on bit-reproducible
// runs under a wall-clock budget, which gives the codebase invariants
// that plain `go vet` cannot check:
//
//   - norand: all randomness flows through seed-splittable internal/rng
//     streams; raw math/rand imports are forbidden elsewhere.
//   - noprint: internal/ library packages never write to stdout/stderr;
//     output belongs in cmd/ binaries or returned values.
//   - floatcmp: floats are never compared with == or != outside the
//     approved helpers in internal/fp.
//   - godiscipline: no bare `go` statements outside internal/parallel, so
//     the batch size q stays the only parallelism knob.
//   - errcheck: no discarded error returns, neither `_ =` nor bare calls.
//   - ctxfirst: context.Context is always the first parameter and never
//     stored in a struct field, keeping the cancellation path visible.
//   - pooldiscipline: every sync.Pool Get is paired with a Put on every
//     return path, and pooled values never escape their function.
//   - locksafe: pointers read from mutex-guarded fields do not leave the
//     critical section alive, and no blocking call runs under a lock.
//   - detorder: no map-iteration-order, wall-clock, or
//     rng-split-in-parallel dependence outside the sanctioned seams.
//   - unusedexport: every exported identifier under internal/ has a
//     consumer: non-test code, or another package's tests.
//
// The framework is deliberately tiny — go/parser, go/ast, go/token and
// go/types only, no golang.org/x/tools — and supports per-line
// `//lint:ignore <analyzers> <reason>` suppressions.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned at a concrete file:line:col.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats the diagnostic in the conventional compiler style.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one type-checked package through an analyzer run.
type Pass struct {
	Fset    *token.FileSet
	Files   []*ast.File
	PkgPath string
	PkgName string
	Pkg     *types.Package
	Info    *types.Info

	loader   *Loader
	analyzer string
	diags    []Diagnostic
}

// Reportf records a diagnostic at pos for the running analyzer.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos lies in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Analyzer is one named invariant check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Pass)
}

// All returns the project analyzers, in stable order.
func All() []*Analyzer {
	return []*Analyzer{NoRand, NoPrint, FloatCmp, GoDiscipline, ErrCheck, CtxFirst, PoolDiscipline, LockSafe, DetOrder, UnusedExport}
}

// ByName resolves a comma-separated analyzer list; unknown names error.
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// RunResult separates the diagnostics that survived suppression from the
// ones a //lint:ignore directive silenced, so callers (the -json report,
// the waiver budget) can account for both.
type RunResult struct {
	Diagnostics []Diagnostic
	Suppressed  []Diagnostic
}

// RunPackage applies the analyzers to one loaded package and returns both
// the surviving and the suppressed diagnostics, each sorted by position.
func RunPackage(pkg *Package, analyzers []*Analyzer) RunResult {
	sup := collectSuppressions(pkg.Fset, pkg.Files)
	var res RunResult
	res.Diagnostics = append(res.Diagnostics, sup.meta...)
	for _, a := range analyzers {
		pass := &Pass{
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			PkgPath:  pkg.Path,
			PkgName:  pkg.Name,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			loader:   pkg.loader,
			analyzer: a.Name,
		}
		a.Run(pass)
		for _, d := range pass.diags {
			if sup.suppresses(a.Name, d.Pos) {
				res.Suppressed = append(res.Suppressed, d)
			} else {
				res.Diagnostics = append(res.Diagnostics, d)
			}
		}
	}
	sortDiagnostics(res.Diagnostics)
	sortDiagnostics(res.Suppressed)
	return res
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// pathHasSuffix reports whether an import path ends with the given
// segment-aligned suffix (e.g. "internal/rng" matches "repro/internal/rng"
// but not "repro/internal/rngx").
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}
