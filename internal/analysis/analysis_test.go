package analysis

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// sharedLoader amortizes stdlib source-compilation across subtests.
var sharedLoader = NewLoader()

// goldenCases pairs each analyzer with a fixture package that must fire
// and a compliant package that must stay silent; expected diagnostics
// live in testdata/<analyzer>.golden.
var goldenCases = []struct {
	analyzer *Analyzer
	fixtures []string
}{
	{NoRand, []string{"testdata/src/norand", "testdata/src/internal/rng"}},
	{NoPrint, []string{"testdata/src/noprint", "testdata/src/noprintmain"}},
	{FloatCmp, []string{"testdata/src/floatcmp", "testdata/src/internal/fp"}},
	{GoDiscipline, []string{"testdata/src/godiscipline", "testdata/src/internal/parallel"}},
	{ErrCheck, []string{"testdata/src/errcheck"}},
	{CtxFirst, []string{"testdata/src/ctxfirst"}},
	{PoolDiscipline, []string{"testdata/src/pooldiscipline"}},
	{LockSafe, []string{"testdata/src/locksafe"}},
	{DetOrder, []string{"testdata/src/detorder"}},
	{UnusedExport, []string{"testdata/src/unusedexport/internal/lib", "testdata/src/unusedexport/internal/testutil"}},
}

func TestAnalyzersGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.analyzer.Name, func(t *testing.T) {
			pkgs, err := sharedLoader.Load(tc.fixtures...)
			if err != nil {
				t.Fatal(err)
			}
			var lines []string
			for _, pkg := range pkgs {
				if len(pkg.TypeErrors) > 0 {
					t.Fatalf("fixture %s has type errors, first: %v", pkg.Path, pkg.TypeErrors[0])
				}
				for _, d := range RunPackage(pkg, []*Analyzer{tc.analyzer}).Diagnostics {
					d.Pos.Filename = filepath.ToSlash(d.Pos.Filename)
					lines = append(lines, d.String())
				}
			}
			got := strings.Join(lines, "\n")
			if len(lines) > 0 {
				got += "\n"
			}
			golden := filepath.Join("testdata", tc.analyzer.Name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestAnalyzersFireAndStaySilent is a belt-and-braces check independent
// of golden content: every analyzer fires at least once on its violation
// fixture and never on its compliant fixture.
func TestAnalyzersFireAndStaySilent(t *testing.T) {
	for _, tc := range goldenCases {
		bad, compliant := tc.fixtures[0], ""
		if len(tc.fixtures) > 1 {
			compliant = tc.fixtures[1]
		}
		pkgs, err := sharedLoader.Load(tc.fixtures...)
		if err != nil {
			t.Fatal(err)
		}
		fired := false
		for _, pkg := range pkgs {
			for _, d := range RunPackage(pkg, []*Analyzer{tc.analyzer}).Diagnostics {
				if d.Analyzer != tc.analyzer.Name {
					continue // pbolint meta-diagnostics for malformed directives
				}
				dir := filepath.ToSlash(filepath.Dir(d.Pos.Filename))
				switch dir {
				case bad:
					fired = true
				case compliant:
					t.Errorf("%s fired on compliant fixture: %s", tc.analyzer.Name, d)
				}
			}
		}
		if !fired {
			t.Errorf("%s did not fire on %s", tc.analyzer.Name, bad)
		}
	}
}

func TestSuppressionRequiresReason(t *testing.T) {
	pkgs, err := sharedLoader.Load("testdata/src/godiscipline")
	if err != nil {
		t.Fatal(err)
	}
	var malformed, unsuppressed int
	for _, pkg := range pkgs {
		for _, d := range RunPackage(pkg, []*Analyzer{GoDiscipline}).Diagnostics {
			if d.Analyzer == "pbolint" && strings.Contains(d.Message, "malformed") {
				malformed++
			}
			if d.Analyzer == "godiscipline" {
				unsuppressed++
			}
		}
	}
	if malformed != 1 {
		t.Errorf("malformed-directive diagnostics = %d, want 1", malformed)
	}
	// Fire (uncovered) and FireMalformed (reasonless directive) both
	// report; FireSuppressed does not.
	if unsuppressed != 2 {
		t.Errorf("godiscipline diagnostics = %d, want 2", unsuppressed)
	}
}

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != 10 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want 10, nil", len(all), err)
	}
	two, err := ByName("norand, errcheck")
	if err != nil || len(two) != 2 || two[0] != NoRand || two[1] != ErrCheck {
		t.Fatalf("ByName(\"norand, errcheck\") = %v, err %v", two, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName(\"nosuch\") succeeded, want error")
	}
}
