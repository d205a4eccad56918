package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// compareMain compares saved runs of a parent commit (-old) with runs of
// a change (-new), one row per workload and metric, against the bounds
// in BENCHMARK.json. It exits 1 when any metric got worse.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	oldGlob := fs.String("old", "", "glob of saved outputs of the parent commit's runs")
	newGlob := fs.String("new", "", "glob of saved outputs of the change's runs")
	boundsPath := fs.String("bounds", "BENCHMARK.json", "file whose end_to_end list gives each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bounds, err := readBounds(*boundsPath)
	if err == nil {
		var olds, news map[string][]float64
		if olds, err = readRuns(*oldGlob); err == nil {
			if news, err = readRuns(*newGlob); err == nil {
				return printComparison(olds, news, bounds)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
	return 2
}

// bound is one end-to-end metric's regression bound.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(path string) (map[string]bound, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]bound)
	for _, b := range doc.EndToEnd {
		out[b.Name] = b
	}
	return out, nil
}

// readRuns collects, from every file the glob matches, each workload
// line's metric values, keyed "<workload>/<metric>", in file order.
func readRuns(glob string) (map[string][]float64, error) {
	files, err := filepath.Glob(glob)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no files match %q", glob)
	}
	sort.Strings(files)
	out := make(map[string][]float64)
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(fh)
		sc.Buffer(nil, 64<<20)
		for sc.Scan() {
			var wr workloadResult
			if json.Unmarshal(sc.Bytes(), &wr) != nil || wr.Workload == "" {
				continue
			}
			for k, v := range wr.Metrics {
				out[wr.Workload+"/"+k] = append(out[wr.Workload+"/"+k], v.Value)
			}
		}
		err = sc.Err()
		fh.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
	}
	return out, nil
}

func printComparison(olds, news map[string][]float64, bounds map[string]bound) int {
	var keys []string
	for k := range olds {
		if _, ok := news[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	worse := false
	fmt.Printf("%-46s %28s %28s %8s  %s\n", "workload/metric", "old median [q1, q3]", "new median [q1, q3]", "delta", "verdict")
	for _, k := range keys {
		b := bounds[k[strings.LastIndex(k, "/")+1:]]
		o, n := olds[k], news[k]
		v := verdict(o, n, b)
		worse = worse || v == "worse"
		oq, nq := quartiles(o), quartiles(n)
		fmt.Printf("%-46s %28s %28s %+7.1f%%  %s\n", k, fmtQ(oq), fmtQ(nq), 100*(nq[1]-oq[1])/oq[1], v)
	}
	if worse {
		return 1
	}
	return 0
}

func fmtQ(q [3]float64) string { return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2]) }

// verdict judges a change's runs against the parent's for one metric:
//   - better: the change wins at least 9 in 10 of the pairs (old[i],
//     new[i]), ties counting for neither, and the medians differ by more
//     than the parent's interquartile range;
//   - unresolved: either side's interquartile range, as a share of the
//     parent's median, exceeds the bound, unless every run of the change
//     beats every run of the parent;
//   - worse: the change's median is worse than the parent's by more than
//     the bound;
//   - same: otherwise. Metrics without a bound get "info".
func verdict(old, new []float64, b bound) string {
	if b.Better == "" {
		return "info"
	}
	better := func(x, y float64) bool { // x better than y
		if b.Better == "higher" {
			return x > y
		}
		return x < y
	}
	oq, nq := quartiles(old), quartiles(new)
	allBetter := true
	for _, x := range new {
		for _, y := range old {
			allBetter = allBetter && better(x, y)
		}
	}
	wins, pairs := 0, min(len(old), len(new))
	for i := 0; i < pairs; i++ {
		if better(new[i], old[i]) {
			wins++
		}
	}
	spread := math.Max(oq[2]-oq[0], nq[2]-nq[0]) / math.Abs(oq[1])
	worsening := (nq[1] - oq[1]) / math.Abs(oq[1])
	if b.Better == "higher" {
		worsening = -worsening
	}
	switch {
	case spread > b.Bound && !allBetter:
		return "unresolved"
	case pairs > 0 && wins*10 >= 9*pairs && better(nq[1], oq[1]) && math.Abs(nq[1]-oq[1]) > oq[2]-oq[0]:
		return "better"
	case worsening > b.Bound:
		return "worse"
	}
	return "same"
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) computes them (its default
// "exclusive" method).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
