package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// minRuns is the fewest runs per workload a result set needs before its
// median and quartiles mean anything.
const minRuns = 3

// resultSet holds, per workload and metric, the values of the untraced
// runs in one result file.
type resultSet map[string]map[string][]float64

func readResultSet(path string) (resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := resultSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Traced {
			continue // end-to-end numbers always come from untraced runs
		}
		if set[r.Workload] == nil {
			set[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			set[r.Workload][name] = append(set[r.Workload][name], m.Value)
		}
	}
	return set, sc.Err()
}

// Verdicts of one workload × metric comparison.
const (
	verdictWithin     = "within bound"
	verdictWorse      = "WORSE"
	verdictUnresolved = "unresolved"
)

// judge compares a metric's baseline values a with candidate values b.
// It is unresolved when either side's own quartile spread exceeds the
// bound (the noise is wider than the regression being looked for),
// worse when b's median is worse than a's by more than the bound.
func judge(d metricDef, a, b []float64) string {
	ma, mb := median(a), median(b)
	if d.bound == 0 {
		// fail_share: may not rise at all.
		if mb > ma {
			return verdictWorse
		}
		return verdictWithin
	}
	if spread(a) > d.bound || spread(b) > d.bound {
		return verdictUnresolved
	}
	worse := mb - ma
	if d.higher {
		worse = ma - mb
	}
	if ma != 0 && worse/ma > d.bound {
		return verdictWorse
	}
	return verdictWithin
}

// compareFiles prints, per workload × end-to-end metric, both sides'
// medians and quartiles and a verdict, and reports whether any metric
// got worse. -agree is the same check on two sets of one commit.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readResultSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-14s %-22s %5s | %12s %12s %12s | %12s %12s %12s | %s\n",
		"workload", "metric", "bound", "a.q1", "a.median", "a.q3", "b.q1", "b.median", "b.q3", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := a[wl.name][d.name], b[wl.name][d.name]
			if len(va) == 0 && len(vb) == 0 {
				continue // the operation does not occur on this workload
			}
			if len(va) < minRuns || len(vb) < minRuns {
				return false, fmt.Errorf("%s %s: %d and %d runs, need at least %d per side", wl.name, d.name, len(va), len(vb), minRuns)
			}
			aq1, aq3 := quartiles(va)
			bq1, bq3 := quartiles(vb)
			verdict := judge(d, va, vb)
			worse = worse || verdict == verdictWorse
			fmt.Fprintf(w, "%-14s %-22s %4.0f%% | %12.4f %12.4f %12.4f | %12.4f %12.4f %12.4f | %s\n",
				wl.name, d.name, 100*d.bound, aq1, median(va), aq3, bq1, median(vb), bq3, verdict)
		}
	}
	return worse, nil
}
