package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// UnusedExport flags exported identifiers declared in non-test files
// under internal/ that have no consumer. An identifier has a consumer
// when a non-test file anywhere in the repository references it, or when
// a _test.go file of another package does — so a cross-package test seam
// counts, while an export that only its own package's tests reach does
// not: such code belongs in a _test.go file, or nowhere. An exported
// method also counts as used when it implements a used method of an
// interface (the repository's own, or any standard-library interface,
// whose callers cannot be seen).
//
// The repository is the module enclosing the package, nested modules
// included, so the verdict does not depend on which patterns pbolint was
// given. Struct fields are not checked (encoders reach them by
// reflection), internal/testutil is exempt, and packages inside testdata
// are skipped because they are not part of the build.
var UnusedExport = &Analyzer{
	Name: "unusedexport",
	Doc:  "flag exported identifiers under internal/ that no non-test code and no other package's test references",
	Run:  runUnusedExport,
}

func runUnusedExport(p *Pass) {
	if len(p.Files) == 0 {
		return
	}
	path := strings.TrimSuffix(p.PkgPath, "_test")
	if !strings.Contains("/"+path+"/", "/internal/") || pathHasSuffix(path, "internal/testutil") {
		return
	}
	dir, err := filepath.Abs(filepath.Dir(p.Fset.Position(p.Files[0].Package).Filename))
	if err != nil {
		p.Reportf(p.Files[0].Package, "cannot resolve package directory: %v", err)
		return
	}
	root, ok := moduleRoot(dir)
	if !ok {
		return
	}
	if rel, err := filepath.Rel(root, dir); err != nil || strings.Contains("/"+filepath.ToSlash(rel)+"/", "/testdata/") {
		return
	}
	idx := exportIndexFor(p.loader, root)
	if idx.err != nil {
		p.Reportf(p.Files[0].Package, "cannot index %s for consumers: %v", root, idx.err)
		return
	}
	check := func(id *ast.Ident, kind, name string) {
		if !id.IsExported() {
			return
		}
		pos := p.Fset.Position(id.Pos())
		file, err := filepath.Abs(pos.Filename)
		if err != nil || idx.used[posKey{file, pos.Offset}] {
			return
		}
		p.Reportf(id.Pos(), "exported %s %s has no consumer outside its own package's tests: delete it, or move it into a _test.go file", kind, name)
	}
	for _, f := range p.Files {
		if p.InTestFile(f.Package) {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					check(d.Name, "func", d.Name.Name)
				} else {
					check(d.Name, "method", recvTypeName(d.Recv)+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						check(s.Name, "type", s.Name.Name)
						it, isIface := s.Type.(*ast.InterfaceType)
						if !isIface {
							continue
						}
						for _, m := range it.Methods.List {
							for _, n := range m.Names {
								check(n, "interface method", s.Name.Name+"."+n.Name)
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							check(n, d.Tok.String(), n.Name)
						}
					}
				}
			}
		}
	}
}

// recvTypeName returns the base type name of a method receiver, without
// pointer or type parameters.
func recvTypeName(recv *ast.FieldList) string {
	if recv == nil || len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return types.ExprString(t)
		}
	}
}

// posKey identifies a declaration by absolute file name and byte offset,
// which stays stable across the separate type-checks that see the same
// source (a package checked with its tests, and the same package checked
// again as an import).
type posKey struct {
	file string
	off  int
}

// exportIndex holds, for one repository root, the set of declarations
// that have a consumer.
type exportIndex struct {
	used map[posKey]bool
	err  error
}

// exportIndexFor returns the consumer index of the repository at root,
// building it with l on first use: one pbolint run indexes each
// repository once, reusing the loader's already type-checked packages.
func exportIndexFor(l *Loader, root string) *exportIndex {
	if l == nil {
		l = NewLoader()
	}
	idx, ok := l.exports[root]
	if !ok {
		idx = &exportIndex{}
		idx.used, idx.err = buildExportIndex(l, root)
		l.exports[root] = idx
	}
	return idx
}

// buildExportIndex type-checks every package under root and records each
// declaration that a consumer references, then closes the set over
// interface satisfaction.
func buildExportIndex(l *Loader, root string) (map[posKey]bool, error) {
	pkgs, err := l.Load(root + string(filepath.Separator) + "...")
	if err != nil {
		return nil, err
	}
	key := func(pos token.Pos) (posKey, bool) {
		if !pos.IsValid() {
			return posKey{}, false
		}
		p := l.Fset.Position(pos)
		return posKey{p.Filename, p.Offset}, strings.HasPrefix(p.Filename, root+string(filepath.Separator))
	}
	used := map[posKey]bool{}
	repoPaths := map[string]bool{}
	for _, pkg := range pkgs {
		repoPaths[strings.TrimSuffix(pkg.Path, "_test")] = true
		// A function referring to itself (recursion) is not a consumer.
		decls := map[posKey]*ast.FuncDecl{}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					k, _ := key(fd.Name.Pos())
					decls[k] = fd
				}
			}
		}
		for id, obj := range pkg.Info.Uses {
			if obj.Pkg() == nil {
				continue
			}
			k, inRepo := key(origin(obj).Pos())
			if !inRepo {
				continue
			}
			if strings.HasSuffix(l.Fset.Position(id.Pos()).Filename, "_test.go") && filepath.Dir(k.file) == pkg.Dir {
				continue // the package's own tests are no consumer
			}
			if fd := decls[k]; fd != nil && id.Pos() >= fd.Pos() && id.Pos() < fd.End() {
				continue
			}
			used[k] = true
		}
	}

	// Interfaces: the repository's own, checked once as imports so their
	// types are the ones concrete types are checked against, plus every
	// standard-library interface they reach, whose methods all count as
	// used.
	var named []*types.Named
	errorIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	ifaces := []*types.Interface{errorIface}
	external := map[*types.Interface]bool{errorIface: true}
	seen := map[*types.Package]bool{}
	var visit func(tp *types.Package, repo bool)
	visit = func(tp *types.Package, repo bool) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if it, ok := n.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
				if !repo {
					external[it] = true
				}
			}
			if repo {
				named = append(named, n)
			}
		}
		for _, imp := range tp.Imports() {
			visit(imp, repoPaths[imp.Path()])
		}
	}
	for _, pkg := range pkgs {
		if strings.HasSuffix(pkg.Path, "_test") || pkg.Types == nil {
			continue
		}
		tp := pkg.Types
		if pkg.Name != "main" {
			// The import view of the package is the one every other
			// package's code was checked against.
			if imported, err := l.imp.ImportFrom(pkg.Path, pkg.Dir, 0); err == nil {
				tp = imported
			}
		}
		visit(tp, true)
	}

	for changed := true; changed; {
		changed = false
		for _, it := range ifaces {
			var want []*types.Func
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if k, _ := key(m.Pos()); external[it] || used[k] {
					want = append(want, m)
				}
			}
			if len(want) == 0 {
				continue
			}
			for _, n := range named {
				// The pointer's method set includes the value's.
				t := types.Type(types.NewPointer(n))
				if types.IsInterface(n) {
					t = n
				}
				if n.TypeParams().Len() > 0 || !types.Implements(t, it) {
					continue
				}
				ms := types.NewMethodSet(t)
				for _, m := range want {
					sel := ms.Lookup(m.Pkg(), m.Name())
					if sel == nil {
						continue
					}
					if k, inRepo := key(sel.Obj().Pos()); inRepo && !used[k] {
						used[k] = true
						changed = true
					}
				}
			}
		}
	}
	return used, nil
}

// origin maps an instantiated generic function or method to its
// declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}
