package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// compare mode: `benchmark compare BASE.json OTHER.json [...]`. Each file is
// a set of runs written with -out. For every (workload, end-to-end metric)
// it prints each side's median and quartiles and a verdict against the
// metric's bound:
//
//	ok          OTHER's median is no worse than BASE's by more than the bound
//	regressed   it is worse by more than the bound
//	unresolved  either side's run-to-run spread (IQR / median) exceeds the
//	            bound, and not every OTHER run beats every BASE run

func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Traced {
			recs = append(recs, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no timed runs", path)
	}
	return recs, nil
}

// inputsOf is what must match before two sets may be compared: the cores
// and threads every run used, and per workload the seeds with the digest of
// the inputs each produced.
func inputsOf(recs []runRecord) string {
	var keys []string
	for _, r := range recs {
		keys = append(keys, fmt.Sprintf("%s seed=%d digest=%s gomaxprocs=%d threads=%d",
			r.Workload, r.Env.Seed, r.InputDigest, r.Env.GOMAXPROCS, r.Env.Threads))
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// quartiles matches Python's statistics.quantiles(values, n=4): the driver
// that gates on this benchmark computes its spreads that way.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func spreadOf(q1, q2, q3 float64) float64 {
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// verdict applies the rule above to one metric's values on both sides.
func verdict(def metricDef, base, other []float64) string {
	b1, b2, b3 := quartiles(base)
	o1, o2, o3 := quartiles(other)
	worse := (o2 - b2) / b2
	better := func(o, b float64) bool { return o < b }
	if def.better == "higher" {
		worse = -worse
		better = func(o, b float64) bool { return o > b }
	}
	if max(spreadOf(b1, b2, b3), spreadOf(o1, o2, o3)) > def.bound {
		for _, o := range other {
			for _, b := range base {
				if !better(o, b) {
					return "unresolved"
				}
			}
		}
		return "ok"
	}
	if worse > def.bound {
		return "regressed"
	}
	return "ok"
}

func compareMain(paths []string) int {
	if len(paths) < 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare BASE.json OTHER.json [...]")
		return 2
	}
	sets := make([][]runRecord, len(paths))
	for i, p := range paths {
		recs, err := readRecords(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark compare:", err)
			return 2
		}
		sets[i] = recs
	}
	status := 0
	for i := 1; i < len(sets); i++ {
		if a, b := inputsOf(sets[0]), inputsOf(sets[i]); a != b {
			fmt.Fprintf(os.Stderr, "benchmark compare: refusing to compare %s with %s: gomaxprocs, threads, seeds or input digests differ\n--- %s\n%s\n--- %s\n%s\n",
				paths[0], paths[i], paths[0], a, paths[i], b)
			return 2
		}
		fmt.Printf("%s (base) vs %s\n", paths[0], paths[i])
		if !compareSets(sets[0], sets[i]) {
			status = 1
		}
	}
	return status
}

// compareSets prints the table for one pair of sets and reports whether
// nothing regressed.
func compareSets(base, other []runRecord) bool {
	values := func(recs []runRecord, workload, metric string) []float64 {
		var out []float64
		for _, r := range recs {
			if r.Workload != workload {
				continue
			}
			if metric == failRatio {
				out = append(out, r.Result.failRatio())
			} else {
				out = append(out, r.Result.Metrics[metric].Value)
			}
		}
		return out
	}
	clean := true
	fmt.Printf("%-11s %-16s %5s %38s %38s %8s  %s\n", "workload", "metric", "bound",
		"base median [q1, q3] (n)", "other median [q1, q3] (n)", "change", "verdict")
	for _, s := range workloads {
		for _, def := range append([]metricDef{{name: failRatio, unit: "ratio", better: "lower"}}, endToEnd...) {
			b, o := values(base, s.name, def.name), values(other, s.name, def.name)
			if len(b) == 0 || len(o) == 0 {
				continue
			}
			b1, b2, b3 := quartiles(b)
			o1, o2, o3 := quartiles(o)
			var v, change string
			if def.name == failRatio {
				// Always 0 on a passing run: any rise fails, no relative bound.
				v, change = "ok", "-"
				if o2 > b2 {
					v = "regressed"
				}
			} else {
				v = verdict(def, b, o)
				change = fmt.Sprintf("%+.1f%%", (o2-b2)/b2*100)
			}
			if v == "regressed" {
				clean = false
			}
			fmt.Printf("%-11s %-16s %5.2f %38s %38s %8s  %s\n", s.name, def.name, def.bound,
				fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", b2, b1, b3, len(b)),
				fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", o2, o1, o3, len(o)), change, v)
		}
	}
	return clean
}
