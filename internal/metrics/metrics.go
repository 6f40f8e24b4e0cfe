// Package metrics computes the static program statistics the paper
// aggregates in Table 1 over student solutions: lines of Verilog code,
// always blocks, blocking and non-blocking assignment counts, and display
// statements, plus build counts taken from instrumented-runtime logs.
package metrics

import (
	"fmt"
	"strings"

	"cascade/internal/verilog"
)

// Report holds the Table 1 statistics for one program.
type Report struct {
	Lines              int // non-empty source lines
	AlwaysBlocks       int
	BlockingAssigns    int
	NonblockingAssigns int
	DisplayStmts       int // $display/$write/$monitor occurrences
	Builds             int // from the build log; 0 when no log was kept
}

// Analyze parses src (modules plus root items) and counts its features.
func Analyze(src string) (Report, error) {
	var r Report
	for _, line := range strings.Split(src, "\n") {
		if strings.TrimSpace(line) != "" {
			r.Lines++
		}
	}
	mods, items, errs := verilog.ParseProgramFragment(src)
	if len(errs) > 0 {
		return r, fmt.Errorf("metrics: %v", errs[0])
	}
	for _, m := range mods {
		for _, it := range m.Items {
			r.countItem(it)
		}
	}
	for _, it := range items {
		r.countItem(it)
	}
	return r, nil
}

func (r *Report) countItem(it verilog.Item) {
	switch x := it.(type) {
	case *verilog.AlwaysBlock:
		r.AlwaysBlocks++
		verilog.WalkStmt(x.Body, r.countStmt, nil)
	case *verilog.InitialBlock:
		verilog.WalkStmt(x.Body, r.countStmt, nil)
	}
}

func (r *Report) countStmt(s verilog.Stmt) bool {
	switch x := s.(type) {
	case *verilog.For:
		// The loop header's init/post are not counted (they are control,
		// not dataflow, in the paper's accounting).
		verilog.WalkStmt(x.Body, r.countStmt, nil)
		return false
	case *verilog.ProcAssign:
		if x.Blocking {
			r.BlockingAssigns++
		} else {
			r.NonblockingAssigns++
		}
	case *verilog.SysTask:
		switch x.Name {
		case "$display", "$write", "$monitor":
			r.DisplayStmts++
		}
	}
	return true
}

// Aggregate summarizes many reports as Table 1 does: mean, min, max.
type Aggregate struct {
	N                                 int
	WithLogs                          int
	Lines, Always, Blocking, Nonblock Stat
	Display, Builds                   Stat
}

// Stat is one mean/min/max row.
type Stat struct {
	Mean     float64
	Min, Max int
}

func summarize(vals []int) Stat {
	if len(vals) == 0 {
		return Stat{}
	}
	s := Stat{Min: vals[0], Max: vals[0]}
	total := 0
	for _, v := range vals {
		total += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = float64(total) / float64(len(vals))
	return s
}

// Summarize aggregates reports; build statistics cover only reports with
// a log (Builds > 0), matching the paper's 23-of-31 submission of logs.
func Summarize(reports []Report) Aggregate {
	agg := Aggregate{N: len(reports)}
	var lines, always, blocking, nonblock, display, builds []int
	for _, r := range reports {
		lines = append(lines, r.Lines)
		always = append(always, r.AlwaysBlocks)
		blocking = append(blocking, r.BlockingAssigns)
		nonblock = append(nonblock, r.NonblockingAssigns)
		display = append(display, r.DisplayStmts)
		if r.Builds > 0 {
			builds = append(builds, r.Builds)
			agg.WithLogs++
		}
	}
	agg.Lines = summarize(lines)
	agg.Always = summarize(always)
	agg.Blocking = summarize(blocking)
	agg.Nonblock = summarize(nonblock)
	agg.Display = summarize(display)
	agg.Builds = summarize(builds)
	return agg
}

// Rows renders the aggregate in the paper's Table 1 layout.
func (a Aggregate) Rows() []string {
	row := func(name string, s Stat) string {
		return fmt.Sprintf("%-28s %8.0f %6d %6d", name, s.Mean, s.Min, s.Max)
	}
	return []string{
		fmt.Sprintf("%-28s %8s %6s %6s", "", "mean", "min", "max"),
		row("Lines of Verilog code", a.Lines),
		row("Always blocks", a.Always),
		row("Blocking-assignments", a.Blocking),
		row("Nonblocking-assignments", a.Nonblock),
		row("Display statements", a.Display),
		row("Number of builds", a.Builds),
	}
}
