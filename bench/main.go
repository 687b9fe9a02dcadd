// Command bench is the SNS benchmark: it boots the TranSend service in
// the repo's two-process split, drives it only through the edge's HTTP
// listener with a seeded generator, checks every answer, and reports
// end-to-end metrics (tracing off) and a per-layer ledger taken from
// outside the program. See README.md in this directory.
//
// bench/ is a module of its own (go.mod replaces module repro with the
// checkout around it), so it is built from inside: `go run -C bench .`,
// or bench/run.sh, which builds into .bench_build/ and is
// BENCHMARK.json's command. Three ways to run it; relative paths are
// taken from the repository root either way:
//
//	go run -C bench .                                   every workload, both modes, ledgers, bench/out/results.json
//	go run -C bench . -workload W -seed N -seconds S -trace 0|1   one run; last stdout line is the result JSON
//	go run -C bench . -compare a.json b.json            compare two results.json files
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

func main() {
	if spec := os.Getenv(loadgenEnv); spec != "" {
		os.Exit(loadgenChild(spec))
	}
	var (
		workloadName = flag.String("workload", "", "run one workload ("+fmt.Sprint(workloadNames)+"); empty runs all")
		seed         = flag.Int64("seed", 1, "workload seed: same seed, same inputs")
		seconds      = flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds in BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics and ledger")
		compare      = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		outDir       = flag.String("out", filepath.Join("bench", "out"), "directory for span files, result files and scratch")
	)
	flag.Parse()

	// `go run -C bench .` starts the program in bench/; everything
	// below is relative to the checkout root, one level up.
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		if _, err := os.Stat(filepath.Join("..", "BENCHMARK.json")); err == nil {
			if err := os.Chdir(".."); err != nil {
				fatal(err)
			}
		}
	}
	m, err := loadManifest()
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare a.json b.json"))
		}
		if err := compareFiles(m, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds <= 0 {
		*seconds = float64(m.RunSeconds)
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	if *workloadName == "" {
		if err := runAll(m, *seed, *seconds, *outDir); err != nil {
			fatal(err)
		}
		return
	}

	opt := options{workload: *workloadName, seed: *seed, seconds: *seconds, trace: *trace, setUps: setUpRepeats, outDir: *outDir}
	r, err := run(context.Background(), m, opt)
	if err != nil {
		fatal(err)
	}
	r.print(os.Stderr)
	if err := writeJSON(resultPath(*outDir, opt.workload, opt.trace), r); err != nil {
		fatal(err)
	}
	// The driver reads `correct`; a wrong answer or a failed gate is a
	// result, not a crash, so the exit code stays 0.
	fmt.Println(r.contractLine())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func resultPath(outDir, workload string, trace int) string {
	return filepath.Join(outDir, fmt.Sprintf("result_%s_trace%d.json", workload, trace))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// resultSet is what a run of every workload writes and -compare reads: per
// workload, the end-to-end report and the per-layer report.
type resultSet struct {
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Workloads map[string]*resultPair `json:"workloads"`
}

type resultPair struct {
	EndToEnd *report `json:"end_to_end"`
	PerLayer *report `json:"per_layer"`
}

// runAll re-executes this binary once per workload and mode, so cache
// state, RSS and set-up never leak between workloads, then prints every
// metric and ledger and writes results.json. It fails if any run is
// incorrect or fails an isolation gate.
func runAll(m *manifest, seed int64, seconds float64, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{Seed: seed, Seconds: seconds, Workloads: map[string]*resultPair{}}
	var bad []string
	for _, name := range workloadNames {
		pair := &resultPair{}
		set.Workloads[name] = pair
		for trace := 0; trace <= 1; trace++ {
			cmd := exec.Command(self,
				"-workload", name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(trace), "-out", outDir)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stdout
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s trace=%d: %w", name, trace, err)
			}
			data, err := os.ReadFile(resultPath(outDir, name, trace))
			if err != nil {
				return err
			}
			r := &report{}
			if err := json.Unmarshal(data, r); err != nil {
				return err
			}
			if trace == 0 {
				pair.EndToEnd = r
			} else {
				pair.PerLayer = r
			}
			if !r.Correct {
				bad = append(bad, fmt.Sprintf("%s trace=%d (failed=%d, gates=%v)", name, trace, r.Failed, r.Gates))
			}
		}
	}
	path := filepath.Join(outDir, "results.json")
	if err := writeJSON(path, set); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	if len(bad) > 0 {
		return fmt.Errorf("incorrect runs: %v", bad)
	}
	return nil
}
