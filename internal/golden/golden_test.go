package golden

import (
	"fmt"
	"strings"
	"testing"
)

// failures stands in for the test a record is checked in, keeping what
// Check reports instead of failing.
type failures struct {
	testing.TB
	msgs []string
}

func (f *failures) Errorf(format string, args ...any) {
	f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
}

// TestCheckNamesTheLineThatMoved: a record that matches passes, and one
// that does not is reported by its first differing line and how many
// lines differ, an appended line included, or as differing only in its
// final newline.
func TestCheckNamesTheLineThatMoved(t *testing.T) {
	if *update {
		t.Skip("the fixture is written by hand")
	}
	Check(t, "ticks", "tick 1 msgs=3\ntick 2 msgs=5\ntick 3 msgs=7\n")
	for _, c := range []struct{ got, want string }{
		{"tick 1 msgs=3\ntick 2 msgs=6\ntick 3 msgs=7\n", "1 of 3 lines differ, the first is line 2:\n got: tick 2 msgs=6\nwant: tick 2 msgs=5"},
		{"tick 1 msgs=3\ntick 2 msgs=5\ntick 3 msgs=7\ntick 4 msgs=9\n", "1 of 3 lines differ, the first is line 4:\n got: tick 4 msgs=9\nwant: (end of record)"},
		{"tick 1 msgs=3\ntick 2 msgs=5\ntick 3 msgs=7", "differs only in its final newline"},
	} {
		f := &failures{TB: t}
		Check(f, "ticks", c.got)
		if len(f.msgs) != 1 || !strings.Contains(f.msgs[0], c.want) {
			t.Errorf("reported %q, want it to say %q", f.msgs, c.want)
		}
	}
}
