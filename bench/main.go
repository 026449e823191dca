// Command bench is the repository's end-to-end benchmark. It builds dlsd
// from the same tree, runs it as a child process with deployment flags only
// (-addr, -metrics-addr, and -ledger-dir on durable workloads), and drives
// it over TCP from this single process at GOMAXPROCS=1 with two
// connections, one tenant each. Each workload runs set-up, a measured phase
// with tracing off, a SIGTERM drain, a restart over the same ledger, and
// with -trace 1 an in-process traced replay of the serve path. See
// README.md for the workloads, metrics and measured noise.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload round-m64-durable --seed 3 --seconds 10 --trace 0
//	bash bench/run.sh -trace 1                 # every workload, every metric
//	bash bench/run.sh -smoke                   # every workload at 2% of its requests
//	bash bench/run.sh -record a.jsonl ...      # also append each result to a.jsonl
//	bash bench/run.sh -agree a.jsonl b.jsonl   # do two sets of runs agree within the bounds?
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics of
// BENCHMARK.json with -trace 0, its per-layer metrics with -trace 1. A run
// whose outputs fail a check still prints it, then exits 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// spec is the part of BENCHMARK.json the benchmark reads: metric names,
// units and bounds have their single definition there.
type spec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of a -record file.
type record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	Result   result  `json:"result"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	var (
		name    = flag.String("workload", "", "workload to run (empty: all, in order)")
		seed    = flag.Uint64("seed", 1, "seed for sessions, networks, round seeds, arrival times and deviant positions")
		seconds = flag.Float64("seconds", 10, "measured-phase length; request counts are this many seconds of each workload's nominal rate")
		trace   = flag.Int("trace", 0, "1: also run the traced replay and report the per-layer metrics")
		smoke   = flag.Bool("smoke", false, "run at 2% of each request count, with recovery and the replay")
		rec     = flag.String("record", "", "append each result as one JSON line to this file")
		agree   = flag.Bool("agree", false, "compare two -record files against the bounds: -agree a.jsonl b.jsonl")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		log.Fatalf("-trace must be 0 or 1, got %d", *trace)
	}
	root, err := repoRoot()
	if err != nil {
		log.Fatal(err)
	}
	sp, err := readSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		log.Fatal(err)
	}
	if *agree {
		os.Exit(runAgree(sp, flag.Args()))
	}

	list := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			log.Fatal(err)
		}
		list = []workload{w}
	}
	e := &env{
		out:     filepath.Join(root, ".bench_build"),
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1 || *smoke,
		smoke:   *smoke,
	}
	e.bin = filepath.Join(e.out, "bin")
	if err := buildBinaries(root, e.bin); err != nil {
		log.Fatal(err)
	}
	runtime.GOMAXPROCS(1)

	failed := false
	for _, w := range list {
		o, err := runWorkload(e, w)
		if err != nil {
			log.Fatalf("%s: %v", w.name, err)
		}
		res, err := o.result(sp, e.trace)
		if err != nil {
			log.Fatalf("%s: %v", w.name, err)
		}
		report(w.name, o, sp)
		line, err := json.Marshal(res)
		if err != nil {
			log.Fatal(err)
		}
		if *rec != "" {
			if err := appendRecord(*rec, record{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace, Result: res}); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Println(string(line))
		failed = failed || !res.Correct
	}
	if failed {
		os.Exit(1)
	}
}

// repoRoot is the working directory when it holds the daemon's sources,
// else its parent (running from bench/).
func repoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "dlsd")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("run from the repository root: no cmd/dlsd here or in the parent directory")
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

// result selects the metrics BENCHMARK.json lists for this trace setting.
// A failed run may lack some (a replay that stopped early); they read 0.
func (o *outcome) result(sp *spec, traced bool) (result, error) {
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	add := func(name, unit string) error {
		x, ok := o.values[name]
		if !ok && res.Correct {
			return fmt.Errorf("BENCHMARK.json lists %s, which this run did not measure", name)
		}
		res.Metrics[name] = metric{Value: x, Unit: unit}
		return nil
	}
	if traced {
		for _, m := range sp.PerLayer {
			if err := add(m.Name, m.Unit); err != nil {
				return res, err
			}
		}
		return res, nil
	}
	for _, m := range sp.EndToEnd {
		if err := add(m.Name, m.Unit); err != nil {
			return res, err
		}
	}
	return res, nil
}

// report prints every measured metric by name with its unit, then the notes.
func report(workload string, o *outcome, sp *spec) {
	units := map[string]string{}
	for _, m := range sp.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range sp.PerLayer {
		units[m.Name] = m.Unit
	}
	names := make([]string, 0, len(o.values))
	for n := range o.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s  %-32s %14.6g %s\n", workload, n, o.values[n], units[n])
	}
	for _, n := range o.notes {
		fmt.Printf("%s  %s\n", workload, n)
	}
	fmt.Printf("%s  attempted %d, failed %d\n", workload, o.attempted, o.failed)
}

func appendRecord(path string, r record) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
