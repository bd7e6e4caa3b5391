package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// resultKey groups the runs of one result file.
type resultKey struct {
	workload, metric string
	traced           bool
}

// loadResults reads a file of JSON result lines (as -out writes them) and
// returns every metric's values across the runs in it.
func loadResults(path string) (map[resultKey][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	vals := make(map[resultKey][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Failed > 0 {
			return nil, fmt.Errorf("%s:%d: run of %s had %d failed operations", path, line, r.Workload, r.Failed)
		}
		for _, d := range defsFor(r.Traced) {
			if m, ok := r.Metrics[d.Name]; ok {
				k := resultKey{r.Workload, d.Name, r.Traced}
				vals[k] = append(vals[k], m.Value)
			}
		}
	}
	return vals, sc.Err()
}

// verdict judges one metric of one workload: exact metrics may not move
// at all on the deterministic workloads, end-to-end metrics may not get
// worse by more than their bound, and per-layer timings are informative.
func verdict(d metricDef, deterministic bool, base, next float64) string {
	if d.Exact && deterministic {
		if base != next {
			return "MOVED (exact)"
		}
		return "same"
	}
	if d.Bound == 0 || base == 0 {
		return ""
	}
	worse := (next - base) / base
	if d.Better == "higher" {
		worse = -worse
	}
	if worse > d.Bound {
		return fmt.Sprintf("WORSE by %.1f%% (bound %.0f%%)", 100*worse, 100*d.Bound)
	}
	return "within bound"
}

// compareFiles prints one row per (workload, metric) present in both
// files, with both medians and their ratio, and returns 1 if any row is
// flagged.
func compareFiles(basePath, nextPath string, stdout, stderr io.Writer) int {
	base, err := loadResults(basePath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	next, err := loadResults(nextPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	flagged, rows := 0, 0
	fmt.Fprintf(stdout, "%-16s %-36s %16s %16s %10s  %s\n", "workload", "metric", "base median", "new median", "new/base", "verdict")
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			for _, d := range defsFor(traced) {
				k := resultKey{w.name, d.Name, traced}
				b, n := base[k], next[k]
				if len(b) == 0 || len(n) == 0 {
					continue
				}
				rows++
				bm, nm := median(b), median(n)
				v := verdict(d, w.clients == 1, bm, nm)
				if v != "" && v != "same" && v != "within bound" {
					flagged++
				}
				rel := "-"
				if bm != 0 {
					rel = fmt.Sprintf("%.4f", nm/bm)
				}
				fmt.Fprintf(stdout, "%-16s %-36s %16.6f %16.6f %10s  %s\n", w.name, d.Name, bm, nm, rel, v)
			}
		}
	}
	if rows == 0 {
		fmt.Fprintln(stderr, "the two files share no (workload, metric) pair")
		return 2
	}
	if flagged > 0 {
		fmt.Fprintf(stdout, "%d of %d rows flagged (base %s, new %s)\n", flagged, rows, basePath, nextPath)
		return 1
	}
	fmt.Fprintf(stdout, "all %d rows agree (base %s, new %s)\n", rows, basePath, nextPath)
	return 0
}
