package rmrls

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestEveryInternalPackageHasAnImporter keeps dead packages out of the
// tree: every package under internal/ must be imported by at least one
// non-test file of another package in this module. A package whose only
// users are its own tests is code nothing runs.
func TestEveryInternalPackageHasAnImporter(t *testing.T) {
	const module = "repro"
	packages := map[string]bool{}
	imported := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			name := d.Name()
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module, such as benchmark/
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		self := module
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			self += "/" + dir
		}
		if strings.HasPrefix(self, module+"/internal/") {
			packages[self] = true
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if p != self {
				imported[p] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(packages) == 0 {
		t.Fatal("found no internal packages; is the test running from the module root?")
	}
	var dead []string
	for p := range packages {
		if !imported[p] {
			dead = append(dead, p)
		}
	}
	sort.Strings(dead)
	for _, p := range dead {
		t.Errorf("%s is imported by no non-test file outside itself: delete it or give it a caller", p)
	}
}

// TestEveryInternalExportHasAUser keeps dead exports out of internal/:
// every exported function and method there must be referenced by a
// non-test file other than the one that declares it. A name used only
// in its own file is unexported; a name only tests use is deleted. The
// benchmark module counts as a user, as do cmd/, examples/ and the
// root facade.
func TestEveryInternalExportHasAUser(t *testing.T) {
	dead, err := deadExports(".", "repro", exportAllowList)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range dead {
		t.Errorf("%s: delete it, unexport it or allow-list it with a reason", name)
	}
}

// exportAllowList names exports that stay although no non-test file
// outside their own references them, each with its reason.
var exportAllowList = map[string]string{
	"internal/canon.(Transform).Conjugate": "the permutation-level reference that the canon, cache and verify tests check ConjugateCircuit against",
	"internal/chaos.(*FS).HealAll":         "test support: the serve chaos tests clear every fault with it",
	"internal/chaos.(*FS).InjectedErrors":  "test support: the chaos and serve chaos tests count the failures they injected with it",
	"internal/chaos.(*FS).CrashAt":         "test support: the crash-enumeration tests arm each crash point with it",
	"internal/chaos.(*FS).Ops":             "test support: the crash-enumeration tests learn how many crash points a write has with it",
	"internal/chaos.(*FS).Crashed":         "test support: the crash-enumeration tests check that the crash point was reached with it",
}

// TestDeadExportsFixture pins what the rule reports on a small tree:
// a function only its own file and a test call, but not a method used
// from another file, a String method or an allow-listed function.
func TestDeadExportsFixture(t *testing.T) {
	allow := map[string]string{"internal/a.Allowed": "the fixture's allow-listed name"}
	got, err := deadExports(filepath.Join("testdata", "deadexports"), "fixture", allow)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"internal/a.Dead is referenced by no non-test file outside internal/a/a.go"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %q, want %q", got, want)
	}
}

// implicitMethods are methods the standard library calls through its
// own interfaces (fmt.Stringer, error, errors.Is/As, http.Handler,
// sort.Interface, heap.Interface, json and text marshaling, io), so a
// program uses them without naming them.
var implicitMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "ServeHTTP": true,
	"Error": true, "Unwrap": true, "Is": true, "As": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Read": true, "Write": true, "Close": true,
}

// deadExports reports each exported function and method declared in a
// non-test file under root/internal that no other non-test file under
// root references, and each entry of allow that names no such export.
// module is root's module path; nested modules, such as benchmark/,
// are read as users.
//
// References come from syntax alone, so the rule is conservative. A
// function counts as used by a selector on an import of its package, or
// by its bare name in another file of its package. A method counts as
// used by a selector of its name in any other file, whatever the
// receiver. Methods named in implicitMethods count as used, and so do
// the methods of the types the root package aliases and of the types
// of those types' exported fields, transitively: they are the public
// facade.
func deadExports(root, module string, allow map[string]string) ([]string, error) {
	type file struct {
		name    string // slash path relative to root
		pkg     string // import path
		ast     *ast.File
		imports map[string]string // local name -> import path
	}
	var files []*file
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		pkg := module
		if dir := filepath.ToSlash(filepath.Dir(rel)); dir != "." {
			pkg += "/" + dir
		}
		files = append(files, &file{name: rel, pkg: pkg, ast: f})
		return nil
	})
	if err != nil {
		return nil, err
	}
	pkgName := map[string]string{}
	for _, f := range files {
		pkgName[f.pkg] = f.ast.Name.Name
	}
	for _, f := range files {
		f.imports = map[string]string{}
		for _, imp := range f.ast.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return nil, err
			}
			name, ok := pkgName[p]
			if !ok {
				name = p[strings.LastIndex(p, "/")+1:]
			}
			if imp.Name != nil {
				name = imp.Name.Name
			}
			f.imports[name] = p
		}
	}

	// refs maps "pkg.Name" (a function of pkg) and ".Name" (a selector)
	// to the files that reference it.
	refs := map[string]map[string]bool{}
	ref := func(key, file string) {
		if refs[key] == nil {
			refs[key] = map[string]bool{}
		}
		refs[key][file] = true
	}
	type decl struct {
		file, pkg, recv, name, display string
	}
	var decls []decl
	type typeDecl struct {
		spec *ast.TypeSpec
		file *file
	}
	types := map[string]typeDecl{} // keyed "pkg.T"
	for _, f := range files {
		declName := map[*ast.Ident]bool{}
		internal := strings.HasPrefix(f.pkg, module+"/internal/")
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				declName[d.Name] = true
				if !internal || !d.Name.IsExported() {
					continue
				}
				rel := strings.TrimPrefix(f.pkg, module+"/")
				if d.Recv == nil {
					decls = append(decls, decl{f.name, f.pkg, "", d.Name.Name, rel + "." + d.Name.Name})
					continue
				}
				recv, star := d.Recv.List[0].Type, ""
				if s, ok := recv.(*ast.StarExpr); ok {
					recv, star = s.X, "*"
				}
				switch r := recv.(type) {
				case *ast.IndexExpr:
					recv = r.X
				case *ast.IndexListExpr:
					recv = r.X
				}
				t := recv.(*ast.Ident).Name
				decls = append(decls, decl{f.name, f.pkg, t, d.Name.Name, rel + ".(" + star + t + ")." + d.Name.Name})
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok {
						types[f.pkg+"."+ts.Name.Name] = typeDecl{ts, f}
					}
				}
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				ref("."+n.Sel.Name, f.name)
				if x, ok := n.X.(*ast.Ident); ok && f.imports[x.Name] != "" {
					ref(f.imports[x.Name]+"."+n.Sel.Name, f.name)
				}
			case *ast.Ident:
				if !declName[n] {
					ref(f.pkg+"."+n.Name, f.name)
				}
			}
			return true
		})
	}

	// The public facade: types the root package aliases, and the types
	// of their exported fields.
	public := map[string]bool{}
	var reach func(f *file, expr ast.Expr)
	reach = func(f *file, expr ast.Expr) {
		ast.Inspect(expr, func(n ast.Node) bool {
			key := ""
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && f.imports[x.Name] != "" {
					key = f.imports[x.Name] + "." + n.Sel.Name
				}
			case *ast.Ident:
				key = f.pkg + "." + n.Name
			default:
				return true
			}
			td, ok := types[key]
			if !ok || public[key] {
				return false
			}
			public[key] = true
			if st, ok := td.spec.Type.(*ast.StructType); ok {
				for _, field := range st.Fields.List {
					exported := len(field.Names) == 0
					for _, name := range field.Names {
						exported = exported || name.IsExported()
					}
					if exported {
						reach(td.file, field.Type)
					}
				}
			}
			return false
		})
	}
	for _, f := range files {
		if f.pkg != module {
			continue
		}
		for _, d := range f.ast.Decls {
			if g, ok := d.(*ast.GenDecl); ok {
				for _, s := range g.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok && ts.Assign.IsValid() {
						reach(f, ts.Type)
					}
				}
			}
		}
	}

	var report []string
	allowed := map[string]bool{}
	for _, d := range decls {
		key := d.pkg + "." + d.name
		if d.recv != "" {
			if implicitMethods[d.name] || public[d.pkg+"."+d.recv] {
				continue
			}
			key = "." + d.name
		}
		used := false
		for file := range refs[key] {
			used = used || file != d.file
		}
		if used {
			continue
		}
		if _, ok := allow[d.display]; ok {
			allowed[d.display] = true
			continue
		}
		report = append(report, d.display+" is referenced by no non-test file outside "+d.file)
	}
	for name := range allow {
		if !allowed[name] {
			report = append(report, "allow-list entry "+name+" names no unused export")
		}
	}
	sort.Strings(report)
	return report, nil
}
