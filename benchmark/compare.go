package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// setupSlack is the difference below which two setup_s readings are equal:
// set-up is tenths of a second, and a few hundredths are scheduling noise.
const setupSlack = 0.05

// quartiles are the first and third quartile of vs as Python's
// statistics.quantiles(vs, n=4) gives them (the exclusive method), so the
// spread printed here is the one the driver computes.
func quartiles(vs series) (q1, q3 float64) {
	s := vs.sorted()
	n := len(s)
	if n < 2 {
		return vs.median(), vs.median()
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(vs series) float64 {
	q1, q3 := quartiles(vs)
	if m := vs.median(); m != 0 {
		return (q3 - q1) / math.Abs(m)
	}
	return 0
}

// verdict compares one metric of one workload between a base run a and a
// run b. worse and better need the medians to differ by more than the
// bound; when the windows of either side spread wider than the bound the
// pair is unresolved, unless every window of one side beats every window of
// the other.
func verdict(m metricSpec, a, b reading) string {
	va, vb := a.Value, b.Value
	if m.Name == "setup_s" && math.Abs(va-vb) < setupSlack {
		return "same"
	}
	worseBy := (vb - va) / va
	aBest, aWorst, bBest, bWorst := a.Min, a.Max, b.Min, b.Max
	if m.Better == "higher" {
		worseBy = (va - vb) / va
		aBest, aWorst, bBest, bWorst = -a.Max, -a.Min, -b.Max, -b.Min
	}
	wide := spread(a.Values) > m.Bound || spread(b.Values) > m.Bound
	switch {
	case worseBy > m.Bound && (!wide || bBest > aWorst):
		return "worse"
	case -worseBy > m.Bound && (!wide || bWorst < aBest):
		return "better"
	case wide:
		return "unresolved"
	}
	return "same"
}

func loadSuite(path string) (*suiteResult, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &suiteResult{}
	if err := json.Unmarshal(buf, s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// compareFiles prints one row per (workload, end-to-end metric) of two suite
// results, A being the base, and fails on any worse row or higher failure
// ratio.
func compareFiles(pathA, pathB string) error {
	a, err := loadSuite(pathA)
	if err != nil {
		return err
	}
	b, err := loadSuite(pathB)
	if err != nil {
		return err
	}
	byName := map[string]*runResult{}
	for _, r := range b.Runs {
		byName[r.Workload] = r
	}
	fmt.Printf("%-20s %-20s %14s %14s %9s %6s  %s\n", "workload", "metric", "A (base)", "B", "B/A", "bound", "verdict")
	bad := 0
	for _, ra := range a.Runs {
		rb := byName[ra.Workload]
		if rb == nil {
			return fmt.Errorf("%s has no run of %s", pathB, ra.Workload)
		}
		for _, m := range endToEnd {
			ma, mb := ra.Metrics[m.Name], rb.Metrics[m.Name]
			v := verdict(m, ma, mb)
			if v == "worse" {
				bad++
			}
			fmt.Printf("%-20s %-20s %14.4f %14.4f %9.4f %5.0f%%  %s\n",
				ra.Workload, m.Name, ma.Value, mb.Value, mb.Value/ma.Value, 100*m.Bound, v)
		}
		fa, fb := float64(ra.Failed)/float64(ra.Attempted), float64(rb.Failed)/float64(rb.Attempted)
		v := "same"
		if fb > fa {
			v = "worse"
			bad++
		}
		fmt.Printf("%-20s %-20s %14.6f %14.6f %9s %5.0f%%  %s\n", ra.Workload, "failed/attempted", fa, fb, "", 0.0, v)
	}
	if bad > 0 {
		return fmt.Errorf("%d rows are worse than the base", bad)
	}
	return nil
}
