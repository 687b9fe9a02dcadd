package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// manifest is BENCHMARK.json: the one place metric names, units,
// directions and bounds are written down. The program looks units up
// here and refuses to emit a name the manifest does not list.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadManifest reads BENCHMARK.json from the working directory (the
// checkout root, where the command runs) or its parent (where the
// package's tests run).
func loadManifest() (*manifest, error) {
	var firstErr error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		data, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &m, nil
	}
	return nil, firstErr
}

// metric is one reported number. Value is the median of the per-window
// (or per-set-up) values where the metric has them; Q1/Q3 are those
// values' quartiles — the metric's stated noise band within this run.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"` // values behind the median (1 = a single reading)
}

// environment heads every result so two files can be told apart.
type environment struct {
	GoVersion   string  `json:"go_version"`
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Commit      string  `json:"git_commit"`
	Kernel      string  `json:"kernel"`
	CalibBefore float64 `json:"calib_ns_before"`
	CalibAfter  float64 `json:"calib_ns_after"`
	// Noisy is set when the fixed spin loop took >10 % longer or shorter
	// after the run than before it: something else was using the machine.
	Noisy bool `json:"noisy"`
}

type ledgerLine struct {
	Name string  `json:"name"`
	US   float64 `json:"us"`
	Kind string  `json:"kind"` // "measured" (leaf timed in isolation) or "by difference"
}

// report is one run of one workload in one mode.
type report struct {
	Env       environment       `json:"env"`
	Workload  string            `json:"workload"`
	Loop      string            `json:"loop"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	OK        int               `json:"ok"`
	Failed    int               `json:"failed"`
	Reasons   map[string]int    `json:"failure_reasons,omitempty"`
	Sources   map[string]int    `json:"sources,omitempty"`
	Gates     []string          `json:"gate_failures,omitempty"`
	Warnings  []string          `json:"warnings,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Ledger    []ledgerLine      `json:"ledger,omitempty"`
	LedgerSum float64           `json:"ledger_total_us,omitempty"`

	units    map[string]string
	emitErrs []string
}

func newReport(defs []metricDef) *report {
	r := &report{Metrics: map[string]metric{}, units: map[string]string{}}
	for _, d := range defs {
		r.units[d.Name] = d.Unit
	}
	return r
}

// emit records a single reading.
func (r *report) emit(name string, v float64) { r.emitValues(name, []float64{v}) }

// emitValues records a metric as the median of vals with their
// quartiles. Unknown names, repeats and non-finite values are errors:
// BENCHMARK.json and the program must agree exactly.
func (r *report) emitValues(name string, vals []float64) {
	unit, known := r.units[name]
	_, dup := r.Metrics[name]
	v := median(vals)
	switch {
	case !known:
		r.emitErrs = append(r.emitErrs, "metric not in BENCHMARK.json: "+name)
	case dup:
		r.emitErrs = append(r.emitErrs, "metric emitted twice: "+name)
	case len(vals) == 0 || math.IsNaN(v) || math.IsInf(v, 0):
		r.emitErrs = append(r.emitErrs, "metric not finite: "+name)
	}
	q1, q3 := quartiles(vals)
	r.Metrics[name] = metric{Value: v, Unit: unit, Q1: q1, Q3: q3, N: len(vals)}
}

// complete reports every manifest name that was never emitted, plus
// the emission errors collected on the way.
func (r *report) complete() error {
	errs := append([]string(nil), r.emitErrs...)
	for name := range r.units {
		if _, ok := r.Metrics[name]; !ok {
			errs = append(errs, "metric never emitted: "+name)
		}
	}
	if len(errs) == 0 {
		return nil
	}
	sort.Strings(errs)
	return fmt.Errorf("%s", strings.Join(errs, "; "))
}

// gate records an isolation or validity failure: the run is not a
// valid measurement of what the workload claims to measure.
func (r *report) gate(format string, args ...any) {
	r.Gates = append(r.Gates, fmt.Sprintf(format, args...))
}

// warn records a timing condition that makes the run's numbers
// suspect without making its answers wrong.
func (r *report) warn(format string, args ...any) {
	r.Warnings = append(r.Warnings, fmt.Sprintf(format, args...))
}

// contractLine is the last line of standard output: exactly the keys
// the driver reads.
func (r *report) contractLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for name, m := range r.Metrics {
		out.Metrics[name] = mv{m.Value, m.Unit}
	}
	b, _ := json.Marshal(out)
	return string(b)
}

// print writes the human-readable result: counts, every metric by name
// with its unit and quartiles, and the ledger.
func (r *report) print(w *os.File) {
	fmt.Fprintf(w, "== %s (%s loop) seed=%d seconds=%g trace=%d ==\n", r.Workload, r.Loop, r.Seed, r.Seconds, r.Trace)
	fmt.Fprintf(w, "env: %s nproc=%d GOMAXPROCS=%d commit=%s kernel=%s calib_ns=%.0f/%.0f noisy=%v\n",
		r.Env.GoVersion, r.Env.NProc, r.Env.GOMAXPROCS, r.Env.Commit, r.Env.Kernel, r.Env.CalibBefore, r.Env.CalibAfter, r.Env.Noisy)
	fmt.Fprintf(w, "attempted=%d ok=%d failed=%d correct=%v sources=%v\n", r.Attempted, r.OK, r.Failed, r.Correct, r.Sources)
	for reason, n := range r.Reasons {
		fmt.Fprintf(w, "  failure x%d: %s\n", n, reason)
	}
	for _, g := range r.Gates {
		fmt.Fprintf(w, "  GATE FAILED: %s\n", g)
	}
	for _, g := range r.Warnings {
		fmt.Fprintf(w, "  warning: %s\n", g)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		if m.N > 1 {
			fmt.Fprintf(w, "  %-36s %14.4f %-6s  [q1 %.4f, q3 %.4f, n=%d]\n", name, m.Value, m.Unit, m.Q1, m.Q3, m.N)
		} else {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", name, m.Value, m.Unit)
		}
	}
	if len(r.Ledger) > 0 {
		fmt.Fprintf(w, "ledger (single client, µs; lines sum to the end-to-end p50 %.1f):\n", r.LedgerSum)
		for _, l := range r.Ledger {
			fmt.Fprintf(w, "  %-28s %12.1f  %s\n", l.Name, l.US, l.Kind)
		}
	}
}

func currentEnv() environment {
	e := environment{
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     gitCommit(),
		Kernel:     "unknown",
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b []byte
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		e.Kernel = string(b)
	}
	return e
}

// gitCommit reads the checked-out commit from .git without running
// git; the driver's checkout is not a repository, so "unknown" is normal.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(s, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", ref))
		if err != nil {
			return "unknown"
		}
		s = strings.TrimSpace(string(b))
	}
	if len(s) > 12 {
		s = s[:12]
	}
	return s
}
