package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// mini is the size of the tests' miniature runs.
const mini = 0.05

// inputsOf renders everything a workload's generator produced for a
// seed, so two generations can be compared byte for byte.
func inputsOf(t *testing.T, w *workload, seed uint64) string {
	t.Helper()
	inst, err := w.prepare(seed, mini)
	if err != nil {
		t.Fatal(err)
	}
	switch in := inst.(type) {
	case *ladder:
		return in.in.program + in.in.want
	case *stream:
		return in.in.program + in.in.tap + string(in.in.log) + in.in.final
	case *session:
		return in.in.full + in.in.stream
	case *lockstep:
		return in.in.program + in.in.want
	case *durable:
		return in.in.program + in.in.want
	}
	t.Fatalf("unknown instance type %T", inst)
	return ""
}

func TestGeneratorsFollowTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, again, b := inputsOf(t, w, 7), inputsOf(t, w, 7), inputsOf(t, w, 8)
		if a != again {
			t.Errorf("%s: the same seed generated different inputs", w.name)
		}
		if a == b {
			t.Errorf("%s: different seeds generated the same inputs", w.name)
		}
	}
}

// TestOraclesAgreeWithMiniatureRuns runs every workload once at a
// twentieth of its size, traced, and expects every oracle check and the
// hot swap to hold.
func TestOraclesAgreeWithMiniatureRuns(t *testing.T) {
	for _, w := range workloads {
		rep, err := runRep(w, 3, mini, newTracer(w.name), false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(rep.failures) > 0 || rep.checks == 0 {
			t.Errorf("%s: %d checks, failures %q", w.name, rep.checks, rep.failures)
		}
		if rep.toHwPs == 0 || rep.stats.Time.NowPs == 0 {
			t.Errorf("%s: virtual ledger empty: to hardware %d ps, total %d ps", w.name, rep.toHwPs, rep.stats.Time.NowPs)
		}
	}
}

// TestRunsReportEveryDeclaredMetric checks the contract's last line on
// one workload: all end-to-end metrics untraced, all per-layer metrics
// traced, none of the end-to-end ones zero.
func TestRunsReportEveryDeclaredMetric(t *testing.T) {
	w := findWorkload("pow_ladder")
	for trace, defs := range [][]metricDef{endToEnd, perLayer} {
		measure := runEndToEnd
		if trace == 1 {
			measure = runPerLayer
		}
		res, err := measure(w, 5, 10*time.Millisecond, mini)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted == 0 {
			t.Fatalf("trace %d: %+v", trace, res.Failures)
		}
		var out bytes.Buffer
		res.print(&out)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatal(err)
		}
		if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil {
			t.Fatalf("last line has keys %v", last)
		}
		var metrics map[string]struct {
			Value float64
			Unit  string
		}
		if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(defs) {
			t.Errorf("trace %d: %d metrics reported, %d declared", trace, len(metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := metrics[d.name]
			if !ok || m.Unit != d.unit || (trace == 0 && m.Value <= 0) {
				t.Errorf("trace %d: %s reported as %+v (present %v), declared in %s", trace, d.name, m, ok, d.unit)
			}
		}
	}
	if _, err := os.Stat("out/trace-pow_ladder-seed5.jsonl"); err != nil {
		t.Errorf("the traced run left no spans: %v", err)
	}
}

// TestBenchmarkJSONRepeatsTheTables keeps BENCHMARK.json at the root of
// the repository in step with the metric and workload tables here.
func TestBenchmarkJSONRepeatsTheTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricInfo `json:"end_to_end"`
		PerLayer   []metricInfo `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, infos(endToEnd)) {
		t.Errorf("end_to_end differs from the endToEnd table:\n%+v\n%+v", doc.EndToEnd, infos(endToEnd))
	}
	if !reflect.DeepEqual(doc.PerLayer, infos(perLayer)) {
		t.Errorf("per_layer differs from the perLayer table")
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, defined as %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", doc.Paths, doc.RunSeconds)
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(v, n=4) and statistics.median(v).
	for _, c := range []struct {
		v         []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4, 10}, 1.5, 3, 7},
		{[]float64{5, 1, 9, 3, 7, 2, 8}, 2, 5, 8},
		{[]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 1.75, 4.5, 7.25},
	} {
		if s := summarize(c.v); s.Q1 != c.q1 || s.Median != c.m || s.Q3 != c.q3 || s.N != len(c.v) {
			t.Errorf("summarize(%v) = %+v, want %v %v %v", c.v, s, c.q1, c.m, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	wall := metricDef{"run_wall_s", "s", "lower", 0.10}
	tight := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{0.8, 1.0, 1.3, 0.9, 1.2}
	for _, c := range []struct {
		name string
		a, b []float64
		want string
	}{
		{"same", tight, tight, "ok"},
		{"five percent slower", tight, scale(tight, 1.05), "ok"},
		{"twenty percent slower", tight, scale(tight, 1.20), "worse"},
		{"faster", tight, scale(tight, 0.5), "ok"},
		{"spread beyond the bound", wide, scale(wide, 1.05), "unresolved"},
		{"spread beyond the bound but apart", wide, scale(wide, 2), "worse"},
	} {
		if got := judge(wall, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareExitsNonZeroOnWorse(t *testing.T) {
	set := func(wall float64) *record {
		rec := &record{}
		for seed := uint64(1); seed <= 3; seed++ {
			rec.Runs = append(rec.Runs, &runResult{Workload: "pow_ladder", Seed: seed, Metrics: map[string]sample{
				"run_wall_s":   {Value: wall + float64(seed)/1000, Unit: "s", N: 7},
				"virt_total_s": {Value: 32.5, Unit: virtS, N: 1},
			}})
		}
		return rec
	}
	var out bytes.Buffer
	if code := compareSets(set(1), set(1.02), &out); code != 0 {
		t.Errorf("2%% slower: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "3 identical, 0 differ") {
		t.Errorf("exact metrics not reported identical:\n%s", out.String())
	}
	out.Reset()
	if code := compareSets(set(1), set(1.5), &out); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("50%% slower: exit %d\n%s", code, out.String())
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer("w")
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	time.Sleep(2 * time.Millisecond)
	tr.end(inner)
	tr.end(outer)
	o, i := tr.spans[0], tr.spans[1]
	if i.Parent != o.ID || o.Parent != 0 {
		t.Fatalf("parents: %+v %+v", o, i)
	}
	if o.Self != (o.End-o.Start)-(i.End-i.Start) || i.Self != i.End-i.Start || i.Self < int64(2*time.Millisecond) {
		t.Errorf("self times: outer %+v inner %+v", o, i)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("ignored"))
}
