package main

import (
	"os"
	"testing"
)

// skipped lists the experiments the smoke test never runs, and why.
// Everything else is a seeded simulation, a distiller sweep or a small
// live cluster that finishes in a second or two; faults (five live
// recovery legs, ~4 s) runs outside -short.
var skipped = map[string]string{
	"cachecurve": "thirteen full-population LRU simulations, minutes",
	"mgrcap":     "live: 900 worker stubs for ~6 wall-clock seconds; CI runs it alone and wants PASS",
	"fig9":       "live: the chaos suite runs this storm with assertions",
}

func TestExperimentTable(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments {
		if seen[e.id] {
			t.Errorf("experiment id %q listed twice", e.id)
		}
		seen[e.id] = true
	}
	for id := range skipped {
		if !seen[id] {
			t.Errorf("skip list names %q, which is not an experiment", id)
		}
	}
}

func TestRunUnknownExits2(t *testing.T) {
	if code := run([]string{"-run", "fig5,nope"}); code != 2 {
		t.Fatalf("run of an unknown id returned %d, want 2", code)
	}
	if code := run([]string{"-no-such-flag"}); code != 2 {
		t.Fatalf("unknown flag returned %d, want 2", code)
	}
}

// TestExperimentsRun drives every experiment that is not skipped
// through run, output discarded: each must finish and exit 0.
func TestExperimentsRun(t *testing.T) {
	stdout := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = null
	defer func() { os.Stdout = stdout; null.Close() }()
	for _, e := range experiments {
		if skipped[e.id] != "" || (e.id == "faults" && testing.Short()) {
			continue
		}
		if code := run([]string{"-run", e.id}); code != 0 {
			t.Errorf("experiments -run %s exited %d", e.id, code)
		}
	}
}
