package stdlib

import (
	"sync"

	"cascade/internal/bits"
	"cascade/internal/ir"
	"cascade/internal/verilog"
)

// Registry returns the IR-facing specs of every standard-library module:
// parameter defaults and port shapes. The runtime implicitly declares
// these types when it starts (paper §3.2); user code instantiates them
// like any module and the IR wires them to the pre-compiled engines
// built by New. It is built once and shared — read it, never modify it —
// so that a spec is the same object in every build (ir.BuildFrom keeps
// an instance's split while it names the same spec).
func Registry() ir.Registry { return registry() }

var registry = sync.OnceValue(func() ir.Registry {
	u32 := func(v uint64) *bits.Vector { return bits.FromUint64(32, v) }
	paramWidth := func(name string, dflt int) func(map[string]*bits.Vector) int {
		return func(p map[string]*bits.Vector) int {
			if v, ok := p[name]; ok {
				return int(v.Uint64())
			}
			return dflt
		}
	}
	fixed := func(w int) func(map[string]*bits.Vector) int {
		return func(map[string]*bits.Vector) int { return w }
	}
	pow2 := func(name string, dflt int) func(map[string]*bits.Vector) int {
		return func(p map[string]*bits.Vector) int {
			if v, ok := p[name]; ok {
				return int(v.Uint64())
			}
			return dflt
		}
	}
	return ir.Registry{
		"Clock": {
			Name:  "Clock",
			Ports: []ir.StdPort{{Name: "val", Dir: verilog.Output, Width: fixed(1)}},
		},
		"Pad": {
			Name:   "Pad",
			Params: []ir.StdParam{{Name: "N", Default: u32(4)}},
			Ports:  []ir.StdPort{{Name: "val", Dir: verilog.Output, Width: paramWidth("N", 4)}},
		},
		"Led": {
			Name:   "Led",
			Params: []ir.StdParam{{Name: "N", Default: u32(8)}},
			Ports:  []ir.StdPort{{Name: "val", Dir: verilog.Input, Width: paramWidth("N", 8)}},
		},
		"Reset": {
			Name:  "Reset",
			Ports: []ir.StdPort{{Name: "val", Dir: verilog.Output, Width: fixed(1)}},
		},
		"GPIO": {
			Name:   "GPIO",
			Params: []ir.StdParam{{Name: "N", Default: u32(8)}},
			Ports: []ir.StdPort{
				{Name: "in", Dir: verilog.Output, Width: paramWidth("N", 8)},
				{Name: "out", Dir: verilog.Input, Width: paramWidth("N", 8)},
			},
		},
		"Memory": {
			Name: "Memory",
			Params: []ir.StdParam{
				{Name: "A", Default: u32(10)},
				{Name: "W", Default: u32(32)},
			},
			Ports: []ir.StdPort{
				{Name: "raddr", Dir: verilog.Input, Width: pow2("A", 10)},
				{Name: "waddr", Dir: verilog.Input, Width: pow2("A", 10)},
				{Name: "wdata", Dir: verilog.Input, Width: paramWidth("W", 32)},
				{Name: "wen", Dir: verilog.Input, Width: fixed(1)},
				{Name: "rdata", Dir: verilog.Output, Width: paramWidth("W", 32)},
			},
		},
		"FIFO": {
			Name: "FIFO",
			Params: []ir.StdParam{
				{Name: "W", Default: u32(8)},
				{Name: "D", Default: u32(256)},
			},
			Ports: []ir.StdPort{
				{Name: "rdata", Dir: verilog.Output, Width: paramWidth("W", 8)},
				{Name: "empty", Dir: verilog.Output, Width: fixed(1)},
				{Name: "full", Dir: verilog.Output, Width: fixed(1)},
				{Name: "rreq", Dir: verilog.Input, Width: fixed(1)},
				{Name: "wdata", Dir: verilog.Input, Width: paramWidth("W", 8)},
				{Name: "wreq", Dir: verilog.Input, Width: fixed(1)},
			},
		},
	}
})
