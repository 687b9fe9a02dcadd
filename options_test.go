package repro

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// optionsCeiling is the most exported fields the tree's option structs
// may carry between them. Lower it when a change removes options; a
// change that must add one raises it on purpose.
const optionsCeiling = 118

// isOptionStruct names the structs a deployment or test tunes a
// component through.
func isOptionStruct(name string) bool {
	return strings.HasSuffix(name, "Config") || name == "Policy" || name == "Roles"
}

// TestOptionsCeiling fails when the option structs under internal/ and
// cmd/ grow past optionsCeiling exported fields. Like TestLayering it
// parses non-test files only; nothing is type-checked.
func TestOptionsCeiling(t *testing.T) {
	counts := map[string]int{} // "dir.Struct" -> exported fields
	total := 0
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || !isOptionStruct(ts.Name.Name) {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				key := filepath.Dir(path) + "." + ts.Name.Name
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						if name.IsExported() {
							counts[key]++
							total++
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
	t.Logf("%d exported option fields (ceiling %d)", total, optionsCeiling)
	if total <= optionsCeiling {
		return
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "\n  %3d  %s", counts[k], k)
	}
	t.Errorf("%d exported option fields, ceiling %d:%s", total, optionsCeiling, b.String())
}
