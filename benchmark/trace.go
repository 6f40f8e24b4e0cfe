package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one traced interval, recorded by the benchmark's own files
// around its calls into the system (spans inside the program are a later
// change). Start and End are nanoseconds since the tracer was made.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0: top level
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Self     int64  `json:"self_ns"` // End-Start minus the children's durations
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	workload string
	rep      int
	t0       time.Time
	spans    []span
	open     []int // stack of open span IDs
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	s := span{ID: len(t.spans) + 1, Workload: t.workload, Rep: t.rep, Name: name, Start: int64(time.Since(t.t0))}
	if n := len(t.open); n > 0 {
		s.Parent = t.open[n-1]
	}
	t.spans = append(t.spans, s)
	t.open = append(t.open, s.ID)
	return s.ID
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	s.Self += s.End - s.Start
	if s.Parent != 0 {
		t.spans[s.Parent-1].Self -= s.End - s.Start
	}
	t.open = t.open[:len(t.open)-1]
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
