package repro

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// snsLayer lists the packages of the SNS layer and the platform under
// it: they serve any tenant, so none may depend on one.
var snsLayer = []string{
	"san", "stub", "transport", "manager", "supervisor", "monitor", "softstate",
	"lottery", "cluster", "obs", "vcache", "frontend", "edge", "core",
}

// tenants are the two services built on the layer (§3.2, Table 1).
var tenants = []string{"search", "distiller"}

// TestLayering fails when an SNS package depends on a tenant, directly
// or transitively. It reads the import clauses of every non-test file
// under internal/ — nothing is type-checked or built.
//
// Out of scope: internal/origin's simulated fetcher, which core and the
// front end import as the default origin, pulls media, trace and sim
// into the layer. Those are the workload's packages, not a tenant's.
func TestLayering(t *testing.T) {
	const module = "repro/internal/"
	imports := map[string][]string{} // package under internal/ -> the internal packages it imports
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		files, _ := filepath.Glob(filepath.Join("internal", d.Name(), "*.go"))
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range f.Imports {
				if imp, _ := strconv.Unquote(spec.Path.Value); strings.HasPrefix(imp, module) {
					imports[d.Name()] = append(imports[d.Name()], strings.TrimPrefix(imp, module))
				}
			}
		}
	}

	for _, pkg := range snsLayer {
		if st, err := os.Stat(filepath.Join("internal", pkg)); err != nil || !st.IsDir() {
			t.Errorf("internal/%s: no such package", pkg)
			continue
		}
		// via records how each dependency was first reached, for the message.
		via := map[string]string{pkg: ""}
		queue := []string{pkg}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, next := range imports[cur] {
				if _, seen := via[next]; !seen {
					via[next] = cur
					queue = append(queue, next)
				}
			}
		}
		for _, tenant := range tenants {
			if _, ok := via[tenant]; !ok {
				continue
			}
			path := []string{tenant}
			for p := via[tenant]; p != ""; p = via[p] {
				path = append([]string{p}, path...)
			}
			t.Errorf("internal/%s depends on the tenant internal/%s: %s", pkg, tenant, strings.Join(path, " -> "))
		}
	}
}
