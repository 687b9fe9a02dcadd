package main

import (
	"encoding/json"
	"fmt"
	"os"
	"text/tabwriter"
)

// Verdicts of one (workload, end-to-end metric) row.
const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict compares b against a for one metric: unresolved when either
// side's own inter-quartile range is wider than the bound (the run
// cannot resolve a change that small), else worse/better when the
// medians differ by more than the bound in that direction.
func verdict(def metricDef, a, b metric) (relWorse float64, v string) {
	if a.Value == 0 {
		return 0, verdictUnresolved
	}
	relWorse = (b.Value - a.Value) / a.Value
	if def.Better == "higher" {
		relWorse = -relWorse
	}
	spread := func(m metric) float64 { return ratio(m.Q3-m.Q1, m.Value) }
	switch {
	case spread(a) > def.Bound || spread(b) > def.Bound:
		return relWorse, verdictUnresolved
	case relWorse > def.Bound:
		return relWorse, verdictWorse
	case relWorse < -def.Bound:
		return relWorse, verdictBetter
	}
	return relWorse, verdictSame
}

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	set := &resultSet{}
	if err := json.Unmarshal(data, set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// compareFiles prints one row per (workload, end-to-end metric): both
// medians, both IQRs, the relative difference, the bound and a verdict.
func compareFiles(m *manifest, pathA, pathB string) error {
	a, err := readResultSet(pathA)
	if err != nil {
		return err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return err
	}
	for i, set := range []*resultSet{a, b} {
		label := string(rune('a' + i))
		for _, name := range workloadNames {
			if p := set.Workloads[name]; p != nil && p.EndToEnd != nil {
				e := p.EndToEnd.Env
				fmt.Printf("%s: %s seed=%d %s nproc=%d GOMAXPROCS=%d commit=%s kernel=%s calib_ns=%.0f/%.0f noisy=%v\n",
					label, name, p.EndToEnd.Seed, e.GoVersion, e.NProc, e.GOMAXPROCS, e.Commit, e.Kernel, e.CalibBefore, e.CalibAfter, e.Noisy)
			}
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta\ta_iqr\tb\tb_iqr\tworse_by\tbound\tverdict")
	counts := map[string]int{}
	for _, name := range workloadNames {
		pa, pb := a.Workloads[name], b.Workloads[name]
		if pa == nil || pb == nil || pa.EndToEnd == nil || pb.EndToEnd == nil {
			return fmt.Errorf("workload %s missing from one side", name)
		}
		for _, def := range m.EndToEnd {
			ma, mb := pa.EndToEnd.Metrics[def.Name], pb.EndToEnd.Metrics[def.Name]
			rel, v := verdict(def, ma, mb)
			counts[v]++
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.3g\t%.4g\t%.3g\t%+.1f%%\t%.0f%%\t%s\n",
				name, def.Name, def.Unit, ma.Value, ma.Q3-ma.Q1, mb.Value, mb.Q3-mb.Q1, 100*rel, 100*def.Bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("same=%d better=%d worse=%d unresolved=%d\n",
		counts[verdictSame], counts[verdictBetter], counts[verdictWorse], counts[verdictUnresolved])
	return nil
}
