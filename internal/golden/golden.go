// Package golden keeps a test's pinned record as a readable file beside
// the test. A test renders what it pins — one line per tick, per engine
// move, per billing stage — and Check compares the text with
// testdata/<Test>/<name>.golden; `go test -run <Test> -update` rewrites
// the files from the run. A change to a pinned ledger is then a diff
// naming the tick, the counter and the line that moved.
//
// Only tests import it.
package golden

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata/*/*.golden records from this run")

// Check compares got with the record name of t's top-level test and
// reports the first line that differs, or under -update writes got as
// the record.
func Check(t testing.TB, name, got string) {
	t.Helper()
	test, _, _ := strings.Cut(t.Name(), "/")
	path := filepath.Join("testdata", test, name+".golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (go test -run %s -update writes it)", err, test)
	}
	if got == string(want) {
		return
	}
	gl, wl := lines(got), lines(string(want))
	first, differ := -1, 0
	for i := 0; i < max(len(gl), len(wl)); i++ {
		if line(gl, i) != line(wl, i) {
			if first < 0 {
				first = i
			}
			differ++
		}
	}
	if first < 0 {
		t.Errorf("%s: the record differs only in its final newline", path)
		return
	}
	t.Errorf("%s: %d of %d lines differ, the first is line %d:\n got: %s\nwant: %s\n"+
		"(if the change is meant, go test -run %s -update rewrites the record)",
		path, differ, len(wl), first+1, line(gl, first), line(wl, first), test)
}

func lines(text string) []string { return strings.Split(strings.TrimSuffix(text, "\n"), "\n") }

func line(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "(end of record)"
}
