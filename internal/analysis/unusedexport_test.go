package analysis

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

const uxFixture = "testdata/src/unusedexport"

// unusedNames runs UnusedExport over the loaded packages and returns the
// reported identifiers of the package whose directory is dir, sorted,
// plus the suppressed count there.
func unusedNames(t *testing.T, pkgs []*Package, dir string) (names []string, suppressed int) {
	t.Helper()
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			t.Fatalf("%s: type errors, first: %v", pkg.Path, pkg.TypeErrors[0])
		}
		if filepath.ToSlash(pkg.Dir) != dir {
			continue
		}
		res := RunPackage(pkg, []*Analyzer{UnusedExport})
		for _, d := range res.Diagnostics {
			head, _, ok := strings.Cut(d.Message, " has no consumer")
			fields := strings.Fields(head)
			if !ok || d.Analyzer != UnusedExport.Name || len(fields) < 3 {
				t.Fatalf("unexpected diagnostic %s", d)
			}
			names = append(names, fields[len(fields)-1])
		}
		suppressed += len(res.Suppressed)
	}
	sort.Strings(names)
	return names, suppressed
}

// TestUnusedExportCases walks the fixture's acceptance cases one by one:
// a dead export and an export only its own package's tests reach are
// reported; a cross-package test seam, a non-test consumer and methods
// implementing a used interface method (the module's own or fmt.Stringer)
// are not; internal/testutil is exempt by path; a reasoned waiver
// silences its line.
func TestUnusedExportCases(t *testing.T) {
	pkgs, err := sharedLoader.Load(uxFixture + "/...")
	if err != nil {
		t.Fatal(err)
	}
	got, suppressed := unusedNames(t, pkgs, uxFixture+"/internal/lib")
	want := []string{
		"Answer",          // unreferenced const
		"Countdown",       // only refers to itself
		"Dead",            // no reference at all
		"OwnTestOnly",     // own package's test only
		"Shape.Perimeter", // interface method nobody calls
		"Square.Perimeter",
		"Square.Scale", // own package's test only
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reported %v, want %v (Used, Table, Seam, Shape, Shape.Area, Square, Square.Area and Square.String have consumers)", got, want)
	}
	if suppressed != 1 {
		t.Fatalf("suppressed = %d, want 1 (the waived Zero)", suppressed)
	}
	for _, dir := range []string{"/internal/testutil", "/internal/other", "/cmd/app"} {
		if got, _ := unusedNames(t, pkgs, uxFixture+dir); len(got) != 0 {
			t.Fatalf("%s: reported %v, want nothing", dir, got)
		}
	}
}

// TestUnusedExportPatternIndependent: the consumers are indexed from the
// whole enclosing module, so loading one package reports exactly what
// loading the whole tree reports for it. Fresh loaders keep the two runs
// from sharing an index.
func TestUnusedExportPatternIndependent(t *testing.T) {
	lib := uxFixture + "/internal/lib"
	alone, err := NewLoader().Load(lib)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := NewLoader().Load(uxFixture + "/...")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := unusedNames(t, alone, lib)
	w, _ := unusedNames(t, whole, lib)
	if len(a) == 0 || !reflect.DeepEqual(a, w) {
		t.Fatalf("alone %v, whole tree %v: want equal and non-empty", a, w)
	}
}

// TestReadModuleTable: the module line and every local replace directive,
// single-line or in a block, map a module path to a directory; a
// replacement by another module path is left to the go command.
func TestReadModuleTable(t *testing.T) {
	root := t.TempDir()
	gomod := `module example.com/top // the main module

go 1.24

replace example.com/a => ../a

replace (
	example.com/b v1.0.0 => ./b
	example.com/c => example.com/c2 v1.2.0
)
`
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte(gomod), 0o644); err != nil {
		t.Fatal(err)
	}
	got := readModuleTable(root)
	want := []modulePathDir{
		{"example.com/top", root},
		{"example.com/a", filepath.Join(filepath.Dir(root), "a")},
		{"example.com/b", filepath.Join(root, "b")},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("readModuleTable = %v, want %v", got, want)
	}
}
