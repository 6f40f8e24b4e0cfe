package netlist

import "cascade/internal/elab"

// hashedBytes is how many bytes p.Fingerprint feeds SHA-256.
func hashedBytes(p *Program) int {
	n := 0
	p.fingerprint(&n)
	return n
}

// compileFromCounted is CompileFrom, and how many bytes the digests of the
// units it compiled fed SHA-256.
func compileFromCounted(base *Program, f *elab.Flat) (*Program, int, error) {
	n := 0
	p, err := link(base, f, true, &n)
	return p, n, err
}
