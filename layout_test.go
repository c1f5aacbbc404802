package rmrls

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
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
