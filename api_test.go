package rattrap_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// interfaceMethods satisfy a standard-library interface (fmt.Stringer,
// error, errors.Unwrap/Is, sort.Interface and container/heap), which calls
// them without naming them.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true,
	"Len": true, "Less": true, "Swap": true,
}

// testOnlyAllowed are the exported functions and methods that no non-test
// file names and that stay anyway: a test in another package reads them, so
// an unexported field or an export_test.go hook cannot stand in.
var testOnlyAllowed = map[string]string{
	"android.Runtime.OffloadFS": "core checks that every Rattrap runtime writes to the shared offloading I/O layer",
	"host.Host.CachedFiles":     "core's leak and churn tests and unionfs's tests count the page cache",
	"host.Host.DropCaches":      "the root ablation benchmark and unionfs's reference test start from a cold cache",
	"host.Host.MemUsedMB":       "android, container, vm and core check that a stop or a failed boot frees host memory",
	"offload.DecodeChunkNeed":   "the device half of chunk negotiation: realtime's virtual device reads the server's replies with it",
	"sim.Event.Cancel":          "realtime's virtual transport withdraws a code-wait deadline that did not fire",
	"unionfs.Layer.CachedOn":    "core's leak test checks which of a container's files the page cache still holds",
}

// maxTestOnlyAllowed caps the allowlist: a name that needs adding past it is
// a test that should observe the model another way.
const maxTestOnlyAllowed = 12

// srcFile is one Go source file of the scan, by its slash path from the
// module root.
type srcFile struct {
	path string
	src  []byte
}

// testOnlyAPI returns every exported function and method declared in a
// non-test file under internal/ or cmd/ whose name no non-test file
// mentions outside its own declaration, as "pkg.Name" or "pkg.Recv.Name",
// sorted. A name is matched, not resolved, so a mention anywhere keeps every
// declaration of that name.
func testOnlyAPI(files []srcFile) ([]string, error) {
	type decl struct {
		pkg string
		fn  *ast.FuncDecl
	}
	var decls []decl
	// mentions counts a name's identifiers in non-test files; self the
	// ones inside a declaration's own body (recursion is no caller).
	mentions := map[string]int{}
	self := map[*ast.FuncDecl]int{}
	fset := token.NewFileSet()
	for _, f := range files {
		if strings.HasSuffix(f.path, "_test.go") {
			continue
		}
		af, err := parser.ParseFile(fset, f.path, f.src, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		api := strings.HasPrefix(f.path, "internal/") || strings.HasPrefix(f.path, "cmd/")
		for _, d := range af.Decls {
			fn, _ := d.(*ast.FuncDecl)
			ast.Inspect(d, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || fn != nil && id == fn.Name {
					return true
				}
				mentions[id.Name]++
				if fn != nil && id.Name == fn.Name.Name {
					self[fn]++
				}
				return true
			})
			if api && fn != nil && fn.Name.IsExported() && !interfaceMethods[fn.Name.Name] {
				decls = append(decls, decl{path.Base(path.Dir(f.path)), fn})
			}
		}
	}
	var out []string
	for _, d := range decls {
		if mentions[d.fn.Name.Name] > self[d.fn] {
			continue
		}
		name := d.pkg + "." + d.fn.Name.Name
		if r := recvName(d.fn); r != "" {
			name = d.pkg + "." + r + "." + d.fn.Name.Name
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// recvName is a method's receiver type name, "" for a function.
func recvName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// moduleSources reads every .go file of the root module, examples/
// included, and benchmark/'s top-level files: that nested module calls into
// this one, so its references count, though no command here builds it.
func moduleSources(t *testing.T) []srcFile {
	t.Helper()
	var files []srcFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		p = filepath.ToSlash(p)
		if d.IsDir() {
			base := d.Name()
			if p != "." && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || base == "testdata" ||
				strings.HasPrefix(p, "benchmark/")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		files = append(files, srcFile{p, src})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestNoTestOnlyAPI keeps exported functions and methods that only tests
// call out of internal/ and cmd/: a test in the same package reads the
// unexported state itself, and one in another package goes through
// testOnlyAllowed. An allowlisted name that gained a caller, or left, must
// leave the list too.
func TestNoTestOnlyAPI(t *testing.T) {
	if len(testOnlyAllowed) > maxTestOnlyAllowed {
		t.Fatalf("%d names allowlisted, at most %d", len(testOnlyAllowed), maxTestOnlyAllowed)
	}
	found, err := testOnlyAPI(moduleSources(t))
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	for _, name := range found {
		if _, ok := testOnlyAllowed[name]; !ok {
			bad = append(bad, name)
		}
	}
	if len(bad) > 0 {
		t.Errorf("%d exported functions and methods have no non-test caller; delete them, or let the test read the unexported state:\n  %s",
			len(bad), strings.Join(bad, "\n  "))
	}
	for name := range testOnlyAllowed {
		if !slices.Contains(found, name) {
			t.Errorf("%s is allowlisted but is not test-only API (a non-test caller, or gone): drop it from testOnlyAllowed", name)
		}
	}
}

// TestNoTestOnlyAPIFlagsAFixture: on a planted module the scan flags a
// function only a test calls, a method only a test calls and a function
// only its own body calls, and nothing that a non-test file, examples/ or
// benchmark/ names, nor an interface method.
func TestNoTestOnlyAPIFlagsAFixture(t *testing.T) {
	files := []srcFile{
		{"internal/fix/fix.go", []byte(`package fix

type T struct{}

func Used()               {}
func FromExample()        {}
func FromBench()          {}
func OnlyTested()         {}
func Recursive(n int)     { if n > 0 { Recursive(n - 1) } }
func (T) String() string  { return "" }
func (*T) Method()        {}
func (*T) Called()        {}
func unexported()         { var t T; t.Called() }
`)},
		{"internal/fix/fix_test.go", []byte(`package fix

import "testing"

func TestFix(t *testing.T) { OnlyTested(); Recursive(1); var x T; x.Method(); unexported() }
`)},
		{"cmd/app/main.go", []byte(`package main

import "m/internal/fix"

func main() { fix.Used() }
`)},
		{"examples/demo/main.go", []byte(`package main

import "m/internal/fix"

func main() { fix.FromExample() }
`)},
		{"benchmark/probe.go", []byte(`package main

import "m/internal/fix"

func probe() { fix.FromBench() }
`)},
	}
	got, err := testOnlyAPI(files)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"fix.OnlyTested", "fix.Recursive", "fix.T.Method"}
	if !slices.Equal(got, want) {
		t.Fatalf("flagged %v, want %v", got, want)
	}
}
