// Command benchmark is the repository's benchmark: five JIT-lifecycle
// workloads driven through the public runtime, every output checked
// against an oracle outside the Verilog pipeline, host time and the
// virtual clock reported side by side. README.md in this directory
// describes the workloads, the metrics and how they interact.
//
//	benchmark -workload pow_ladder -seed 1 -seconds 12 -trace 0
//	benchmark -workload all -trace 1 -record out/a.json
//	benchmark -compare out/a.json out/b.json
//
// It runs from its own directory (run.sh takes care of that); spans,
// records and scratch directories go under out/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	secs := fs.Float64("seconds", 20, "how long one run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics with spans")
	record := fs.String("record", "", "append each run to this JSON record file")
	compare := fs.Bool("compare", false, "compare two record files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare A.json B.json")
			return 2
		}
		return compareRecords(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	todo := workloads
	if *name != "all" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "unknown workload %q\n", *name)
			return 2
		}
		todo = []*workload{w}
	}
	if *trace != 0 && *trace != 1 || *secs <= 0 {
		fmt.Fprintln(stderr, "-trace takes 0 or 1, -seconds a positive number")
		return 2
	}
	procs := pinProcs()
	budget := time.Duration(*secs * float64(time.Second))
	measure := runEndToEnd
	if *trace == 1 {
		measure = runPerLayer
	}
	status := 0
	for _, w := range todo {
		res, err := measure(w, *seed, budget, 1)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
			return 1
		}
		if *record != "" {
			if err := appendRecord(*record, res, procs); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
		res.print(stdout)
		if !res.Correct {
			status = 1
		}
	}
	return status
}

// print writes every metric by name with its unit, then, as the last
// line, the one JSON object the benchmark contract asks for.
func (r *runResult) print(w io.Writer) {
	fmt.Fprintf(w, "# %s seed=%d trace=%d checks=%d failed=%d\n", r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "# FAILED: %s\n", f)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]valueUnit{}}
	for _, n := range names {
		s := r.Metrics[n]
		fmt.Fprintf(w, "%-34s %16.6f %-8s n=%-4d q1=%.6f median=%.6f q3=%.6f\n", n, s.Value, s.Unit, s.N, s.Q1, s.Median, s.Q3)
		last.Metrics[n] = valueUnit{s.Value, s.Unit}
	}
	line, err := json.Marshal(last)
	if err != nil {
		panic(err) // finite floats and strings only
	}
	fmt.Fprintf(w, "%s\n", line)
}
