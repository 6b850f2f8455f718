package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// resultSet is one side of a comparison: one or more result files of the
// same commit.
type resultSet []*result

func readSet(arg string) (resultSet, error) {
	var set resultSet
	for _, path := range strings.Split(arg, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		r := new(result)
		if err := json.Unmarshal(data, r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		set = append(set, r)
	}
	return set, nil
}

// values collects one metric of one workload across the set's files.
func (s resultSet) values(workload, metric string, layer bool) []float64 {
	var vs []float64
	for _, r := range s {
		w := r.Workloads[workload]
		if w == nil {
			continue
		}
		m := w.EndToEnd
		if layer {
			m = w.PerLayer
		}
		if v, ok := m[metric]; ok {
			vs = append(vs, v.Value)
		}
	}
	return vs
}

// readBounds reads the end-to-end bounds BENCHMARK.json stores.
func readBounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bounds: %w (run from the repository root)", err)
	}
	var file struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]float64{"fail_frac": 0} // absolute: any failure is worse
	for _, m := range file.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// spread is the distance between the first and third quartile as a share
// of the median, quartiles as Python's statistics.quantiles(vs, n=4)
// gives them; 0 for fewer than two values.
func spread(vs []float64) float64 {
	if len(vs) < 2 || median(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	quart := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quart(3) - quart(1)) / median(vs)
}

// judge compares set b (the change) with set a (the parent) on one
// metric: "worse" when b's median is worse than a's by more than bound
// of a's median, "unresolved" when the runs of either side spread wider
// than the bound and the two sides overlap, else "ok".
func judge(a, b []float64, higher bool, bound float64) (verdict string, change, spr float64) {
	sign := 1.0 // makes larger mean worse
	if higher {
		sign = -1
	}
	ma, mb := median(a), median(b)
	change = mb - ma
	if ma != 0 {
		change /= ma
	}
	spr = max(spread(a), spread(b))
	allBetter, allWorse := true, true
	for _, x := range a {
		for _, y := range b {
			allBetter = allBetter && sign*(y-x) <= 0
			allWorse = allWorse && sign*(y-x) > 0
		}
	}
	switch {
	case allBetter:
		return "ok", change, spr
	case spr > bound && !allWorse:
		return "unresolved", change, spr
	case sign*change > bound:
		return "worse", change, spr
	}
	return "ok", change, spr
}

// exact prints a row for every metric of defs declared exact: "same"
// when every run of both sets read the same value.
func exact(w io.Writer, workload string, defs []metricDef, a, b resultSet, layer bool) {
	for _, d := range defs {
		av, bv := a.values(workload, d.name, layer), b.values(workload, d.name, layer)
		if !d.exact || len(av) == 0 || len(bv) == 0 {
			continue
		}
		verdict := "same"
		for _, v := range append(av, bv...) {
			if v != av[0] {
				verdict = "differs"
			}
		}
		fmt.Fprintf(w, "%-18s %-36s %14.6f %14.6f %8s %8s %6s  %s\n", workload, d.name+" (exact)", median(av), median(bv), "", "", "", verdict)
	}
}

// compareMain prints one row per workload × end-to-end metric, and one
// per metric declared exact, and fails when any is worse.
func compareMain(args []string, w io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: bench -compare A.json[,A2.json...] B.json[,B2.json...]")
	}
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		return err
	}
	a, err := readSet(args[0])
	if err != nil {
		return err
	}
	b, err := readSet(args[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-18s %-36s %14s %14s %8s %8s %6s  %s\n", "workload", "metric", "A median", "B median", "change", "spread", "bound", "verdict")
	worse := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			av, bv := a.values(wl.name, d.name, false), b.values(wl.name, d.name, false)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			verdict, change, spr := judge(av, bv, d.better == "higher", bounds[d.name])
			if verdict == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-18s %-36s %14.4f %14.4f %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl.name, d.name, median(av), median(bv), 100*change, 100*spr, 100*bounds[d.name], verdict)
		}
		exact(w, wl.name, endToEnd, a, b, false)
		exact(w, wl.name, perLayer, a, b, true)
	}
	if worse > 0 {
		return fmt.Errorf("%d metrics worse than their bound", worse)
	}
	return nil
}
