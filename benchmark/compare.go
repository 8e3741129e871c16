package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// Verdicts of -compare, per workload and end-to-end metric.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

func readResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &f, nil
}

// values collects one metric of one workload over a file's untraced
// runs.
func (f *resultFile) values(workload, metric string) []float64 {
	var v []float64
	for _, run := range f.Runs {
		if run.Env.Traced {
			continue // a traced run has its own, shorter operation counts
		}
		if res := run.Workloads[workload]; res != nil {
			if m, ok := res.EndToEnd[metric]; ok {
				v = append(v, m.Value)
			}
		}
	}
	return v
}

// sameWork reports an error unless both files hold, workload by
// workload, untraced runs of the same length on the same seeds: medians
// of different work do not compare.
func sameWork(base, change *resultFile) error {
	seconds := 0
	work := func(f *resultFile) (map[string][]int64, error) {
		seeds := map[string][]int64{}
		for _, run := range f.Runs {
			if run.Env.Traced {
				continue
			}
			if seconds == 0 {
				seconds = run.Env.Seconds
			}
			if run.Env.Seconds != seconds {
				return nil, fmt.Errorf("runs of %d and of %d seconds", seconds, run.Env.Seconds)
			}
			for wl := range run.Workloads {
				seeds[wl] = append(seeds[wl], run.Env.Seed)
			}
		}
		for _, s := range seeds {
			slices.Sort(s)
		}
		return seeds, nil
	}
	b, err := work(base)
	if err != nil {
		return err
	}
	c, err := work(change)
	if err != nil {
		return err
	}
	for _, wl := range workloadNames {
		if !slices.Equal(b[wl], c[wl]) {
			return fmt.Errorf("%s: the base has runs on seeds %v, the change on %v", wl, b[wl], c[wl])
		}
	}
	return nil
}

// probes collects the machine probe of one workload over a file's
// untraced runs.
func (f *resultFile) probes(workload string) []float64 {
	var v []float64
	for _, run := range f.Runs {
		if res := run.Workloads[workload]; res != nil && !run.Env.Traced {
			v = append(v, res.ProbeMS)
		}
	}
	return v
}

// spread is the distance between the quartiles as a share of the
// median, or between the extremes when there are too few runs for
// quartiles.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 || len(v) < 2 {
		return 0
	}
	lo, hi := percentile(v, 0.25), percentile(v, 0.75)
	if len(v) < 4 {
		lo, hi = slices.Min(v), slices.Max(v)
	}
	return (hi - lo) / m
}

// judge compares a change's runs with the base's for one metric and
// also returns the wider of the two sides' spreads.
func judge(m metricSpec, base, change []float64) (verdict string, widest float64) {
	// worsening is the share of the base median by which the change's
	// median is worse (negative when it is better).
	var worsening float64
	b, c := median(base), median(change)
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	if b != 0 {
		worsening = sign * (c - b) / b
	} else if c != b {
		worsening = sign * (c - b) // a base of zero: any move counts in full
	}
	widest = max(spread(base), spread(change))

	// Every run of one side beating every run of the other settles the
	// question whatever the spread.
	bLo, bHi := slices.Min(base), slices.Max(base)
	cLo, cHi := slices.Min(change), slices.Max(change)
	allBetter, allWorse := cHi < bLo, cLo > bHi
	if m.Better == "higher" {
		allBetter, allWorse = cLo > bHi, cHi < bLo
	}
	switch {
	case allBetter:
		return verdictOK, widest
	case allWorse && worsening > m.Bound:
		return verdictWorse, widest
	case widest > m.Bound && m.Bound > 0:
		return verdictUnresolved, widest
	case worsening > m.Bound:
		return verdictWorse, widest
	}
	return verdictOK, widest
}

// compareFiles prints, per workload and end-to-end metric, the change's
// median against the base's with the bound and a verdict, and reports
// whether anything got worse. A higher fail_share is always worse.
func compareFiles(w io.Writer, basePath, changePath string) (worse bool, err error) {
	base, err := readResults(basePath)
	if err != nil {
		return false, err
	}
	change, err := readResults(changePath)
	if err != nil {
		return false, err
	}
	if err := sameWork(base, change); err != nil {
		return false, err
	}
	fmt.Fprintf(w, "base %s (%d runs, commit %s)  change %s (%d runs, commit %s)\n",
		basePath, len(base.Runs), base.Runs[0].Env.Commit, changePath, len(change.Runs), change.Runs[0].Env.Commit)
	fmt.Fprintf(w, "%-12s %-20s %12s %12s %8s %8s %7s %7s  %s\n",
		"workload", "metric", "base", "change", "unit", "ratio", "spread", "bound", "verdict")
	for _, wl := range workloadNames {
		if bp, cp := base.probes(wl), change.probes(wl); len(bp) > 0 {
			// Not a verdict: a box that was slower for one side than for
			// the other explains wall-clock metrics that all moved together.
			fmt.Fprintf(w, "%-12s %-20s %12.4f %12.4f %8s %8.3f\n", wl, "(machine probe)", median(bp), median(cp), "ms", median(cp)/median(bp))
		}
		for _, m := range endToEnd {
			bv, cv := base.values(wl, m.Name), change.values(wl, m.Name)
			if len(bv) == 0 && len(cv) == 0 {
				continue // the metric is not defined on the workload, or the workload was not run
			}
			if len(bv) != len(cv) {
				return false, fmt.Errorf("%s %s: %d values in the base, %d in the change", wl, m.Name, len(bv), len(cv))
			}
			verdict, widest := judge(m, bv, cv)
			if verdict == verdictWorse {
				worse = true
			}
			b, c := median(bv), median(cv)
			ratio := "-"
			if b != 0 {
				ratio = fmt.Sprintf("%.3f", c/b)
			}
			fmt.Fprintf(w, "%-12s %-20s %12.4f %12.4f %8s %8s %6.1f%% %6.1f%%  %s\n",
				wl, m.Name, b, c, m.Unit, ratio, 100*widest, 100*m.Bound, verdict)
		}
	}
	return worse, nil
}
