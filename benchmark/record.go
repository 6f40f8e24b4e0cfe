package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"text/tabwriter"
)

// record is the JSON document -record accumulates: where the runs were
// made, and every run with its metrics. Ten runs of a workload under ten
// seeds make one set; -compare judges two sets against each other.
type record struct {
	Env  environment  `json:"env"`
	Runs []*runResult `json:"runs"`
	// EndToEnd and PerLayer repeat the metric tables so a record can be
	// read without the binary that wrote it.
	EndToEnd []metricInfo `json:"end_to_end"`
	PerLayer []metricInfo `json:"per_layer"`
}

type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

type metricInfo struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func infos(defs []metricDef) []metricInfo {
	out := make([]metricInfo, len(defs))
	for i, d := range defs {
		out[i] = metricInfo{d.name, d.unit, d.better, d.bound}
	}
	return out
}

// commit asks git for the checked-out revision; a checkout that is not a
// repository records "unknown".
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func readRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}

// appendRecord adds one run to the record file at path, creating it on
// first use; the file is replaced atomically.
func appendRecord(path string, res *runResult, procs int) error {
	rec, err := readRecord(path)
	if errors.Is(err, fs.ErrNotExist) {
		rec, err = &record{Env: environment{commit(), goruntime.Version(), goruntime.NumCPU(), procs}}, nil
	}
	if err != nil {
		return err
	}
	rec.EndToEnd, rec.PerLayer = infos(endToEnd), infos(perLayer)
	rec.Runs = append(rec.Runs, res)
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// values returns one value per untraced run of a workload in rec (the
// run's own median), or, when there is a single run, that run's
// quartiles around it, so that even two single runs can be compared.
func (rec *record) values(workload, metric string) []float64 {
	var out []float64
	var only sample
	for _, r := range rec.Runs {
		if s, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, s.Value)
			only = s
		}
	}
	if len(out) == 1 && only.N > 1 {
		return []float64{only.Q1, only.Median, only.Q3}
	}
	return out
}

// compareRecords prints one row per workload and end-to-end metric with
// both medians and quartiles, the ratio B/A, the bound and a verdict,
// then how the exact metrics of runs made under the same seed compare.
// It returns 1 if any row is worse.
func compareRecords(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readRecord(pathA)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	b, err := readRecord(pathB)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	return compareSets(a, b, stdout)
}

func compareSets(a, b *record, stdout io.Writer) int {
	fmt.Fprintf(stdout, "A: commit %s, %s, %d of %d CPUs\nB: commit %s, %s, %d of %d CPUs\n",
		a.Env.Commit, a.Env.GoVersion, a.Env.GOMAXPROCS, a.Env.NumCPU,
		b.Env.Commit, b.Env.GoVersion, b.Env.GOMAXPROCS, b.Env.NumCPU)
	tw := tabwriter.NewWriter(stdout, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] n\tB median [q1, q3] n\tB/A\tbound\tverdict")
	worse := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := a.values(w.name, d.name), b.values(w.name, d.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			sa, sb := summarize(va), summarize(vb)
			verdict := judge(d, va, vb)
			if verdict == "worse" {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g [%.5g, %.5g] %d\t%.5g [%.5g, %.5g] %d\t%.4f of %.5g\t%.0f%%\t%s\n",
				w.name, d.name, d.unit, sa.Median, sa.Q1, sa.Q3, sa.N, sb.Median, sb.Q1, sb.Q3, sb.N,
				sb.Median/sa.Median, sa.Median, 100*d.bound, verdict)
		}
	}
	tw.Flush()

	same, differ := 0, 0
	for _, ra := range a.Runs {
		for _, rb := range b.Runs {
			if ra.Workload != rb.Workload || ra.Seed != rb.Seed || ra.Trace != rb.Trace {
				continue
			}
			for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
				sa, oka := ra.Metrics[d.name]
				sb, okb := rb.Metrics[d.name]
				if !d.exact() || !oka || !okb {
					continue
				}
				if sa.Value == sb.Value {
					same++
					continue
				}
				differ++
				fmt.Fprintf(stdout, "exact metric differs: %s seed %d %s: A %v, B %v %s\n",
					ra.Workload, ra.Seed, d.name, sa.Value, sb.Value, d.unit)
			}
		}
	}
	fmt.Fprintf(stdout, "exact metrics (virtual ledger and counts) of same-seed runs: %d identical, %d differ\n", same, differ)
	if worse > 0 {
		return 1
	}
	return 0
}

// exact reports whether the metric repeats exactly for a given seed: it
// is read off the virtual clock or counts deterministic events.
func (d metricDef) exact() bool {
	switch {
	case d.unit == virtS, d.unit == "virt_ms",
		strings.HasPrefix(d.name, "runtime.ticks_"), d.name == "vclock.messages":
		return true
	}
	switch d.name {
	case "verilog.src_kb", "elab.vars", "netlist.cells", "toolchain.flows", "toolchain.cache_hit_ratio",
		"transport.roundtrips_per_tick", "persist.replayed_records":
		return true
	}
	return false
}

// judge applies the regression rule: B is worse when its median is worse
// than A's by more than the bound; when either side's spread (the
// distance between its quartiles, as a share of its median) exceeds the
// bound the row is unresolved, unless every value of one side beats
// every value of the other.
func judge(d metricDef, va, vb []float64) string {
	sa, sb := summarize(va), summarize(vb)
	sign := 1.0
	if d.better == "higher" {
		sign = -1
	}
	worse := sign*(sb.Median-sa.Median) > d.bound*math.Abs(sa.Median)
	spread := math.Max((sa.Q3-sa.Q1)/math.Abs(sa.Median), (sb.Q3-sb.Q1)/math.Abs(sb.Median))
	if spread > d.bound && !apart(va, vb) {
		return "unresolved"
	}
	if worse {
		return "worse"
	}
	return "ok"
}

// apart reports whether the two samples do not overlap.
func apart(va, vb []float64) bool {
	minmax := func(v []float64) (lo, hi float64) {
		lo, hi = v[0], v[0]
		for _, x := range v {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		return
	}
	alo, ahi := minmax(va)
	blo, bhi := minmax(vb)
	return ahi < blo || bhi < alo
}
