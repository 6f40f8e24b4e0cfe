package sim

import "math"

// Every test of this package runs with rewound scratch poisoned: a value
// lent past its boundary (a pending update, a case subject, $display
// arguments, $monitor at EndStep, an initial block inside New) shows up as
// a wrong value in the tests that already compare values.
func init() { poisonRewound = true }

// never is a compile threshold no unit reaches.
const never = math.MaxInt

// withThreshold runs build with the simulators it makes compiling each
// unit at its n-th execution (0: the first; never: none).
func withThreshold(n int, build func()) {
	defer func(old int) { compileThreshold = old }(compileThreshold)
	compileThreshold = n
	build()
}

// compiledUnits is how many units s has compiled.
func (s *Simulator) compiledUnits() int {
	n := 0
	for _, c := range s.code {
		if c != nil {
			n++
		}
	}
	return n
}

// UnitsCompiled is how many units the simulators of this process have
// compiled so far.
func UnitsCompiled() uint64 { return unitsCompiled.Load() }
