package njit

import "cascade/internal/netlist"

// compileCounted is Compile, and the shape of what it built.
func compileCounted(m *netlist.Machine) (*Eval, shape) {
	var n shape
	return compile(m, &n), n
}
