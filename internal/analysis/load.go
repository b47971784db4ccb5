package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one parsed and type-checked compilation unit. A directory
// with an external test package (package foo_test) yields two Packages.
type Package struct {
	Path  string // import path, derived from the module path
	Name  string // package name from the package clause
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors holds non-fatal type-check problems. Analyzers run on
	// whatever information survived; the CLI reports them separately.
	TypeErrors []error

	loader *Loader
}

// Loader parses and type-checks packages. One Loader shares a FileSet and
// an importer across all packages so every dependency is only compiled
// once per run.
type Loader struct {
	Fset *token.FileSet
	imp  *moduleImporter
	// exports caches the unusedexport consumer index per module root.
	exports map[string]*exportIndex
}

// NewLoader returns a loader that imports packages of the enclosing
// module (and of modules its go.mod replaces with local directories) from
// their source directories, and everything else through the stdlib source
// importer.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset: fset,
		imp: &moduleImporter{
			fset:    fset,
			std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
			pkgs:    map[string]*types.Package{},
			modules: map[string][]modulePathDir{},
		},
		exports: map[string]*exportIndex{},
	}
}

// moduleImporter resolves an import against the go.mod enclosing the
// importing file: a path inside that module, or inside a module its
// go.mod replaces with a local directory, is type-checked from the
// directory's non-test files; any other path goes to std. Resolving
// module paths here rather than through `go list` makes the result
// independent of the process's working directory, which lets a fixture
// tree carry a go.mod of its own.
type moduleImporter struct {
	fset    *token.FileSet
	std     types.ImporterFrom
	pkgs    map[string]*types.Package // import path -> package; nil while in progress
	modules map[string][]modulePathDir
}

// modulePathDir maps a module path to the directory holding its source.
type modulePathDir struct {
	path, dir string
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *moduleImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, seen := m.pkgs[path]; seen {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %q", path)
		}
		return pkg, nil
	}
	dir, ok := m.resolve(path, srcDir)
	if !ok {
		return m.std.ImportFrom(path, srcDir, mode)
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	m.pkgs[path] = nil
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, files, nil)
	if err != nil {
		delete(m.pkgs, path)
		return nil, fmt.Errorf("type-checking package %q failed (%v)", path, err)
	}
	m.pkgs[path] = pkg
	return pkg, nil
}

// resolve maps an import path to a source directory through the module
// table of the go.mod enclosing srcDir, preferring the longest matching
// module path.
func (m *moduleImporter) resolve(path, srcDir string) (string, bool) {
	if srcDir == "" {
		return "", false
	}
	abs, err := filepath.Abs(srcDir)
	if err != nil {
		return "", false
	}
	root, ok := moduleRoot(abs)
	if !ok {
		return "", false
	}
	mods, cached := m.modules[root]
	if !cached {
		mods = readModuleTable(root)
		m.modules[root] = mods
	}
	best, bestDir := "", ""
	for _, md := range mods {
		if (path == md.path || strings.HasPrefix(path, md.path+"/")) && len(md.path) > len(best) {
			best, bestDir = md.path, md.dir
		}
	}
	if best == "" {
		return "", false
	}
	return filepath.Join(bestDir, filepath.FromSlash(strings.TrimPrefix(path, best))), true
}

// readModuleTable returns the module declared by root/go.mod, first,
// plus every module its replace directives point at a local directory. A
// go.mod that cannot be read yields an empty table, leaving resolution to
// std.
func readModuleTable(root string) []modulePathDir {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil
	}
	var mods []modulePathDir
	inReplace := false
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if i := strings.Index(line, "//"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		switch {
		case strings.HasPrefix(line, "module "):
			main := modulePathDir{strings.Trim(strings.TrimSpace(strings.TrimPrefix(line, "module ")), `"`), root}
			mods = append([]modulePathDir{main}, mods...)
			continue
		case line == "replace (":
			inReplace = true
			continue
		case inReplace && line == ")":
			inReplace = false
			continue
		}
		rest, isReplace := strings.CutPrefix(line, "replace ")
		if !isReplace && !inReplace {
			continue
		}
		if !isReplace {
			rest = line
		}
		from, to, ok := strings.Cut(rest, "=>")
		fromFields, toFields := strings.Fields(from), strings.Fields(to)
		if !ok || len(fromFields) == 0 || len(toFields) != 1 {
			continue
		}
		target := toFields[0]
		if !strings.HasPrefix(target, ".") && !filepath.IsAbs(target) {
			continue // a module-path replacement is for std's `go list` to find
		}
		if !filepath.IsAbs(target) {
			target = filepath.Join(root, target)
		}
		mods = append(mods, modulePathDir{fromFields[0], filepath.Clean(target)})
	}
	return mods
}

// Load expands the patterns (directories, or dir/... recursive walks)
// into package directories, then parses and type-checks each. Results are
// sorted by import path for deterministic output.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs, err := expandPatterns(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		ps, err := l.loadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", dir, err)
		}
		pkgs = append(pkgs, ps...)
	}
	sort.Slice(pkgs, func(i, j int) bool {
		if pkgs[i].Path != pkgs[j].Path {
			return pkgs[i].Path < pkgs[j].Path
		}
		return pkgs[i].Name < pkgs[j].Name
	})
	return pkgs, nil
}

func expandPatterns(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		root, recursive := strings.CutSuffix(pat, "...")
		root = filepath.Clean(strings.TrimSuffix(root, string(filepath.Separator)))
		if root == "" {
			root = "."
		}
		if !recursive {
			if hasGoFiles(root) {
				add(root)
			} else if _, err := os.Stat(root); err != nil {
				return nil, err
			}
			continue
		}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			base := filepath.Base(path)
			if path != root && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || base == "vendor") {
				return filepath.SkipDir
			}
			// testdata holds analyzer fixtures which are not part of the
			// module build; skip it unless the walk was rooted inside it.
			if path != root && base == "testdata" && !strings.Contains(root, "testdata") {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// loadDir parses every .go file in dir and type-checks up to two units:
// the package itself (including in-package _test.go files) and, when
// present, the external foo_test package.
func (l *Loader) loadDir(dir string) ([]*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	byPkg := map[string][]*ast.File{}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if !buildConstraintSatisfied(f) {
			continue
		}
		byPkg[f.Name.Name] = append(byPkg[f.Name.Name], f)
	}
	importPath, err := importPathFor(dir)
	if err != nil {
		return nil, err
	}
	// In-package _test.go files share the package clause of their package
	// and are grouped with it naturally; an external test package
	// (package foo_test) becomes a unit of its own.
	var names []string
	for name := range byPkg {
		names = append(names, name)
	}
	sort.Strings(names)
	var pkgs []*Package
	for _, name := range names {
		path := importPath
		if strings.HasSuffix(name, "_test") {
			path += "_test"
		}
		pkgs = append(pkgs, l.check(path, name, dir, byPkg[name]))
	}
	return pkgs, nil
}

// buildConstraintSatisfied evaluates a file's //go:build line against the
// host platform with every other tag (race, integration, ...) off —
// matching what a default `go build` would select. Without this, a
// build-tag pair like testutil's race_on.go/race_off.go type-checks as
// one unit and reports a bogus redeclaration.
func buildConstraintSatisfied(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				// An unparseable constraint: include the file and let the
				// type checker complain if it truly conflicts.
				return true
			}
			return expr.Eval(func(tag string) bool {
				return tag == runtime.GOOS || tag == runtime.GOARCH ||
					tag == "gc" || strings.HasPrefix(tag, "go1")
			})
		}
	}
	return true
}

// check type-checks one unit, tolerating type errors.
func (l *Loader) check(path, name, dir string, files []*ast.File) *Package {
	pkg := &Package{Path: path, Name: name, Dir: dir, Fset: l.Fset, Files: files, loader: l}
	conf := types.Config{
		Importer: l.imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	//lint:ignore errcheck Check's error is the first of pkg.TypeErrors, already collected by the Error handler above
	pkg.Types, _ = conf.Check(path, l.Fset, files, pkg.Info)
	return pkg
}

// importPathFor derives the import path of dir from the enclosing
// module's go.mod. Fixture directories below testdata get the same
// treatment, yielding pseudo-paths like
// repro/internal/analysis/testdata/src/internal/rng — which is what lets
// fixtures exercise path-based analyzer exemptions.
func importPathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	root, ok := moduleRoot(abs)
	if !ok {
		// Outside any module: fall back to the cleaned directory path.
		return filepath.ToSlash(dir), nil
	}
	mods := readModuleTable(root)
	if len(mods) == 0 || mods[0].dir != root {
		return "", fmt.Errorf("%s: no module line", filepath.Join(root, "go.mod"))
	}
	rel, err := filepath.Rel(root, abs)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return mods[0].path, nil
	}
	return mods[0].path + "/" + filepath.ToSlash(rel), nil
}

// moduleRoot returns the nearest directory at or above dir holding a
// go.mod.
func moduleRoot(dir string) (string, bool) {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, true
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", false
		}
		dir = parent
	}
}
