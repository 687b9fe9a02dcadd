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

// ownerOnly lists, per SNS package, layers it must not reach either:
// san holds the wire layouts and each owner registers its own, so the
// worker stub needs no client's message types.
var ownerOnly = map[string][]string{"stub": {"vcache"}}

// TestLayering fails when an SNS package depends on a tenant, or on a
// package ownerOnly keeps it from, directly or transitively. It reads
// the import clauses of every non-test file under internal/ — nothing
// is type-checked or built.
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
		for _, dep := range append(ownerOnly[pkg], tenants...) {
			if _, ok := via[dep]; !ok {
				continue
			}
			path := []string{dep}
			for p := via[dep]; p != ""; p = via[p] {
				path = append([]string{p}, path...)
			}
			t.Errorf("internal/%s depends on internal/%s: %s", pkg, dep, strings.Join(path, " -> "))
		}
	}
}

// TestWireTestsLinkEveryOwner: the wire tests (golden frames, the sample
// corpus, the round-trip fuzzer: internal/stub's wire_fuzz_test.go, an
// external test package) cover the kinds their binary links, so that
// file must import every package that registers a kind in san's table.
// A new owner that it misses fails here, not silently unpinned.
func TestWireTestsLinkEveryOwner(t *testing.T) {
	const module = "repro/internal/"
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("internal", "stub", "wire_fuzz_test.go"), nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	linked := map[string]bool{"stub": true}
	for _, spec := range f.Imports {
		if imp, _ := strconv.Unquote(spec.Path.Value); strings.HasPrefix(imp, module) {
			linked[strings.TrimPrefix(imp, module)] = true
		}
	}
	files, _ := filepath.Glob(filepath.Join("internal", "*", "*.go"))
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if owner := filepath.Base(filepath.Dir(path)); strings.Contains(string(src), "san.RegisterKind(") && !linked[owner] {
			t.Errorf("%s registers wire kinds, but internal/stub/wire_fuzz_test.go does not import internal/%s", path, owner)
		}
	}
}
