package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestConfigFieldsHaveSetters keeps knobs from creeping back: every
// exported field of core.Config and offload.RetryPolicy must be set by
// non-test code somewhere under cmd/, internal/, examples/ or benchmark/.
// A field only tests set is a constant in disguise. A setter is an F: key
// in a composite literal of the struct's own type, or an assignment
// x.F = … (matched by field name alone: the check parses, it does not
// type-check).
func TestConfigFieldsHaveSetters(t *testing.T) {
	root := filepath.Join("..", "..")
	structs := map[string][]string{
		"core.Config":         exportedFields(t, filepath.Join(root, "internal", "core", "core.go"), "Config"),
		"offload.RetryPolicy": exportedFields(t, filepath.Join(root, "internal", "offload", "retry.go"), "RetryPolicy"),
	}

	assigned := map[string]bool{} // field names on the left of an assignment
	keyed := map[string]bool{}    // "pkg.Type.Field" keys of composite literals
	fset := token.NewFileSet()
	for _, dir := range []string{"cmd", "internal", "examples", "benchmark"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							assigned[sel.Sel.Name] = true
						}
					}
				case *ast.CompositeLit:
					typ := qualifiedType(f.Name.Name, n.Type)
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok {
								keyed[typ+"."+key.Name] = true
							}
						}
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	for typ, fields := range structs {
		for _, name := range fields {
			if !assigned[name] && !keyed[typ+"."+name] {
				t.Errorf("%s.%s has no non-test setter: make it a constant, or give it a caller", typ, name)
			}
		}
	}
}

// exportedFields lists the exported fields of the struct type name
// declared in file.
func exportedFields(t *testing.T, file, name string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var fields []string
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != name {
			return true
		}
		for _, fl := range ts.Type.(*ast.StructType).Fields.List {
			for _, id := range fl.Names {
				if id.IsExported() {
					fields = append(fields, id.Name)
				}
			}
		}
		return false
	})
	if len(fields) == 0 {
		t.Fatalf("%s: no exported fields of %s found", file, name)
	}
	return fields
}

// qualifiedType names a composite literal's type as "pkg.Type": a bare
// identifier belongs to the file's own package. Other type expressions
// (slices, maps, elided types) name nothing these checks look for.
func qualifiedType(pkg string, typ ast.Expr) string {
	switch typ := typ.(type) {
	case *ast.Ident:
		return pkg + "." + typ.Name
	case *ast.SelectorExpr:
		if x, ok := typ.X.(*ast.Ident); ok {
			return x.Name + "." + typ.Sel.Name
		}
	}
	return ""
}
