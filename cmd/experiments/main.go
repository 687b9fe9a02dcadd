// Command experiments regenerates every table and figure from the
// paper's evaluation (§4) plus the ablations DESIGN.md calls out.
//
// Usage:
//
//	experiments -run all
//	experiments -run fig5|fig6|fig7|fig8|table1|table2|cache|cachecurve|
//	                 mgrcap|oscillation|sansat|faults|hotbot|econ
//	experiments -list
//
// Each experiment prints the same rows/series the paper reports, so
// output can be compared side by side with the published artifact
// (EXPERIMENTS.md records that comparison).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

type experiment struct {
	id   string
	what string
	run  func(seed int64)
}

var experiments = []experiment{
	{"fig5", "content-length distributions per MIME type (Figure 5)", runFig5},
	{"fig6", "request-rate burstiness across time scales (Figure 6)", runFig6},
	{"fig7", "distillation latency vs input size (Figure 7)", runFig7},
	{"fig8", "self-tuning and fault recovery time series (Figure 8)", runFig8},
	{"table1", "TranSend vs HotBot structural differences (Table 1)", runTable1},
	{"table2", "linear scalability sweep (Table 2)", runTable2},
	{"cache", "cache partition performance (§4.4)", runCache},
	{"cachecurve", "hit rate vs cache size vs population (§4.4)", runCacheCurve},
	{"mgrcap", "manager load-announcement capacity (§4.6)", runMgrCap},
	{"oscillation", "stale-data oscillation ablation (§4.5)", runOscillation},
	{"sansat", "SAN saturation ablation (§4.6)", runSANSat},
	{"faults", "process-peer fault tolerance timeline (§3.1.3)", runFaults},
	{"fig9", "chaos harness: fault storm + recovery timeline (§4.3)", runFig9},
	{"hotbot", "partitioned search: fan-out and node loss (§3.2)", runHotBot},
	{"econ", "economic feasibility model (§5.2)", runEcon},
	{"threshold", "the 1 KB distillation threshold rationale (§4.1)", runThreshold},
}

func main() { os.Exit(run(os.Args[1:])) }

// run is main with the exit status as its result.
func run(args []string) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	runFlag := fs.String("run", "", "experiment id or 'all'")
	seed := fs.Int64("seed", 1, "random seed")
	list := fs.Bool("list", false, "list experiments")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list || *runFlag == "" {
		fmt.Println("experiments:")
		for _, e := range experiments {
			fmt.Printf("  %-12s %s\n", e.id, e.what)
		}
		if *runFlag == "" {
			return 0
		}
	}

	ids := map[string]experiment{}
	for _, e := range experiments {
		ids[e.id] = e
	}
	var selected []experiment
	if *runFlag == "all" {
		selected = experiments
	} else {
		for _, id := range strings.Split(*runFlag, ",") {
			e, ok := ids[id]
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
				return 2
			}
			selected = append(selected, e)
		}
	}
	for _, e := range selected {
		banner(e.id + " — " + e.what)
		e.run(*seed)
		fmt.Println()
	}
	return 0
}

func banner(s string) {
	fmt.Println(strings.Repeat("=", 72))
	fmt.Println(s)
	fmt.Println(strings.Repeat("=", 72))
}

// sparkline renders values as a compact ASCII series.
func sparkline(values []float64, width int) string {
	if len(values) == 0 {
		return ""
	}
	if len(values) > width {
		// Downsample by max within buckets (peaks matter).
		out := make([]float64, width)
		per := float64(len(values)) / float64(width)
		for i := 0; i < width; i++ {
			lo, hi := int(float64(i)*per), int(float64(i+1)*per)
			if hi > len(values) {
				hi = len(values)
			}
			max := 0.0
			for _, v := range values[lo:hi] {
				if v > max {
					max = v
				}
			}
			out[i] = max
		}
		values = out
	}
	max := 0.0
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		max = 1
	}
	levels := []rune(" .:-=+*#%@")
	var b strings.Builder
	for _, v := range values {
		i := int(v / max * float64(len(levels)-1))
		if i < 0 {
			i = 0
		}
		if i >= len(levels) {
			i = len(levels) - 1
		}
		b.WriteRune(levels[i])
	}
	return b.String()
}

func sortedKeys(m map[int]int) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
