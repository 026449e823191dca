package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// Verdicts of -agree for one (metric, workload).
const (
	verdictOK         = "ok"         // medians within the bound, spreads within it too
	verdictUnresolved = "unresolved" // a set's own spread exceeds the bound
	verdictDisagree   = "disagree"   // medians differ by more than the bound
)

// agreement compares one metric's values from two sets of runs: the
// medians may differ by at most bound (a share of a's median), and a set
// whose interquartile spread exceeds the bound cannot tell either way.
func agreement(a, b []float64, bound float64) (verdict string, delta float64) {
	_, medA, _ := quartiles(a)
	_, medB, _ := quartiles(b)
	delta = (medB - medA) / math.Abs(medA)
	switch {
	case spread(a) > bound || spread(b) > bound:
		return verdictUnresolved, delta
	case math.Abs(delta) > bound:
		return verdictDisagree, delta
	}
	return verdictOK, delta
}

// runAgree prints a verdict for every end-to-end metric of every workload
// recorded in both files, against the bounds in BENCHMARK.json. It returns
// the exit code: 1 if any pair disagrees.
func runAgree(sp *spec, files []string) int {
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -agree a.jsonl b.jsonl")
		return 2
	}
	var sets [2]map[string][]record
	for i, f := range files {
		recs, err := readRecords(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		sets[i] = recs
	}
	code := 0
	for _, w := range workloads {
		a, b := sets[0][w.name], sets[1][w.name]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		for _, m := range sp.EndToEnd {
			va, vb := values(a, m.Name), values(b, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict, delta := agreement(va, vb, m.Bound)
			if verdict == verdictDisagree {
				code = 1
			}
			_, medA, _ := quartiles(va)
			_, medB, _ := quartiles(vb)
			fmt.Printf("%-22s %-16s a %10.4g (spread %5.1f%%, n=%d)  b %10.4g (spread %5.1f%%, n=%d)  Δ %+6.1f%%  bound %4.0f%%  %s\n",
				w.name, m.Name, medA, 100*spread(va), len(va), medB, 100*spread(vb), len(vb), 100*delta, 100*m.Bound, verdict)
		}
	}
	return code
}

// readRecords loads a -record file, grouped by workload.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out, sc.Err()
}

func values(recs []record, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
