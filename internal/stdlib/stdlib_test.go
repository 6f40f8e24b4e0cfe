package stdlib

import (
	"fmt"
	"testing"

	"cascade/internal/bits"
	"cascade/internal/engine"
)

// step runs one scheduler time step against a set of engines, mimicking
// the runtime's batched loop.
func step(engines ...engine.Engine) {
	for {
		ran := false
		for _, e := range engines {
			if e.ThereAreEvals() {
				e.Evaluate()
				ran = true
			}
		}
		if ran {
			continue
		}
		any := false
		for _, e := range engines {
			if e.ThereAreUpdates() {
				e.Update()
				any = true
			}
		}
		if !any {
			break
		}
	}
	for _, e := range engines {
		e.EndStep()
	}
}

func drainVal(t *testing.T, e engine.Engine, name string) (uint64, bool) {
	t.Helper()
	for _, ev := range engine.Collect(e) {
		if ev.Var == name {
			return ev.Val.Uint64(), true
		}
	}
	return 0, false
}

func TestClockTogglesOncePerStep(t *testing.T) {
	c := NewClock("main.clk")
	engine.Collect(c) // initial broadcast
	want := uint64(1)
	for i := 0; i < 6; i++ {
		step(c)
		v, changed := drainVal(t, c, "val")
		if !changed || v != want {
			t.Fatalf("step %d: val=%d changed=%v, want %d", i, v, changed, want)
		}
		want ^= 1
	}
}

func TestClockUpdatesOnlyWhenArmed(t *testing.T) {
	c := NewClock("x")
	if !c.ThereAreUpdates() {
		t.Fatal("clock should start armed")
	}
	c.Update()
	if c.ThereAreUpdates() {
		t.Fatal("clock must disarm after update (one tick per step)")
	}
	c.Update() // must be a no-op
	if got := c.Val(); got != 1 {
		t.Fatalf("double update changed val twice: %d", got)
	}
	c.EndStep()
	if !c.ThereAreUpdates() {
		t.Fatal("end_step should re-arm the tick (paper §3.5)")
	}
}

// TestQuiescentDrainAllocFree: a component whose outputs did not move
// answers either drain without allocating, however often it is asked —
// inside a forward group that is several times per scheduler iteration.
func TestQuiescentDrainAllocFree(t *testing.T) {
	f := NewFIFO("f", 8, 4, NewWorld())
	if got := len(f.DrainWrites()); got != 3 {
		t.Fatalf("first drain broadcast %d outputs, want 3", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		f.EndStep() // nothing queued by the host: outputs keep their values
		if evs := f.DrainWrites(); evs != nil {
			t.Fatalf("quiescent drain returned %v", evs)
		}
		f.VisitWrites(func(string, *bits.Vector) { t.Fatal("quiescent visit") })
	}); got != 0 {
		t.Fatalf("quiescent drain allocates: %v per call", got)
	}
}

func TestPadSamplesWorldBetweenSteps(t *testing.T) {
	w := NewWorld()
	p := NewPad("main.pad", 4, w)
	engine.Collect(p)
	w.PressPad("main.pad", 0b1010)
	if v, changed := drainVal(t, p, "val"); changed {
		t.Fatalf("pad changed mid-step: %d", v)
	}
	step(p)
	if v, changed := drainVal(t, p, "val"); !changed || v != 0b1010 {
		t.Fatalf("pad did not sample: %d %v", v, changed)
	}
}

func TestResetLine(t *testing.T) {
	w := NewWorld()
	r := NewReset("main.rst", w)
	engine.Collect(r)
	w.SetReset("main.rst", true)
	step(r)
	if v, changed := drainVal(t, r, "val"); !changed || v != 1 {
		t.Fatalf("reset not asserted: %d %v", v, changed)
	}
	w.SetReset("main.rst", false)
	step(r)
	if v, changed := drainVal(t, r, "val"); !changed || v != 0 {
		t.Fatalf("reset not deasserted: %d %v", v, changed)
	}
}

// TestWorldInputs pins the board's input surface: the recorder sees
// every host drive, ApplyInput bypasses it and refuses an unknown kind,
// InputStates lists (Kind, Path) in order with a reset line as 0 or 1,
// and a per-tick read allocates nothing.
func TestWorldInputs(t *testing.T) {
	w := NewWorld()
	var seen []InputState
	w.SetInputRecorder(func(kind, path string, v uint64) { seen = append(seen, InputState{kind, path, v}) })
	w.DriveGPIO("main.gp", 0xa5)
	w.PressPad("main.pad", 3)
	w.SetReset("main.rst", true)
	if err := w.ApplyInput(InputReset, "main.arst", 7); err != nil {
		t.Fatal(err)
	}
	if err := w.ApplyInput("bogus", "main.x", 1); err == nil {
		t.Fatal("ApplyInput accepted an unknown kind")
	}
	want := []InputState{{InputGPIO, "main.gp", 0xa5}, {InputPad, "main.pad", 3}, {InputReset, "main.rst", 1}}
	if fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("recorded %v, want %v", seen, want)
	}
	all := []InputState{want[0], want[1], {InputReset, "main.arst", 1}, want[2]}
	if got := w.InputStates(); fmt.Sprint(got) != fmt.Sprint(all) {
		t.Fatalf("InputStates = %v, want %v", got, all)
	}
	if w.Pad("main.pad") != 3 || w.input(InputGPIO, "main.gp") != 0xa5 || w.input(InputReset, "main.arst") != 1 || w.Pad("main.gp") != 0 {
		t.Fatal("inputs read back wrong")
	}
	if n := testing.AllocsPerRun(100, func() { w.Pad("main.pad"); w.input(InputReset, "main.rst") }); n != 0 {
		t.Fatalf("input reads allocate %v times", n)
	}
}

func TestLedVisibleImmediately(t *testing.T) {
	w := NewWorld()
	l := NewLed("main.led", 8, w)
	l.Read(engine.Event{Var: "val", Val: bits.FromUint64(8, 0xa5)})
	if got := w.Led("main.led"); got != 0xa5 {
		t.Fatalf("led side effect not immediate: %x", got)
	}
}

func TestLedTrace(t *testing.T) {
	w := NewWorld()
	w.TraceLeds = true
	l := NewLed("main.led", 8, w)
	for i := 1; i <= 3; i++ {
		l.Read(engine.Event{Var: "val", Val: bits.FromUint64(8, uint64(i))})
	}
	if len(w.LedTrace) != 3 || w.LedTrace[2] != 3 {
		t.Fatalf("trace wrong: %v", w.LedTrace)
	}
}

func TestMemorySampleThenCommit(t *testing.T) {
	m := NewMemory("main.mem", 4, 16)
	engine.Collect(m)
	// Drive a write and a read of the same address.
	m.Read(engine.Event{Var: "waddr", Val: bits.FromUint64(4, 3)})
	m.Read(engine.Event{Var: "wdata", Val: bits.FromUint64(16, 0xbeef)})
	m.Read(engine.Event{Var: "wen", Val: bits.FromUint64(1, 1)})
	m.Read(engine.Event{Var: "raddr", Val: bits.FromUint64(4, 3)})
	// Step 1 (rising edge): write sampled, not yet visible.
	step(m)
	if v, _ := drainVal(t, m, "rdata"); v == 0xbeef {
		t.Fatal("write visible in the same cycle (clock-to-Q violated)")
	}
	// Step 2 (falling edge): commit becomes visible.
	step(m)
	if v, changed := drainVal(t, m, "rdata"); !changed || v != 0xbeef {
		t.Fatalf("write not visible after commit: %x (%v)", v, changed)
	}
}

func TestMemoryOneWritePerTick(t *testing.T) {
	m := NewMemory("m", 2, 8)
	m.Read(engine.Event{Var: "wen", Val: bits.FromUint64(1, 1)})
	m.Read(engine.Event{Var: "waddr", Val: bits.FromUint64(2, 0)})
	m.Read(engine.Event{Var: "wdata", Val: bits.FromUint64(8, 7)})
	// Repeated Update calls within one step must not double-commit.
	if !m.ThereAreUpdates() {
		t.Fatal("no update pending")
	}
	m.Update()
	if m.ThereAreUpdates() {
		t.Fatal("second update in one step")
	}
}

func TestFIFOHostRoundTrip(t *testing.T) {
	w := NewWorld()
	f := NewFIFO("main.fifo", 8, 4, w)
	engine.Collect(f)
	w.Stream("main.fifo").Push(11, 22, 33)
	step(f) // refill happens at EndStep
	if v, changed := drainVal(t, f, "rdata"); !changed || v != 11 {
		t.Fatalf("head not presented: %d %v", v, changed)
	}
	if v, changed := drainVal(t, f, "empty"); changed && v != 0 {
		t.Fatalf("empty should be 0: %d", v)
	}
	// Pop: sampled at the next rising-edge-aligned step, applied at the
	// following falling-edge step (the refill step consumed one phase).
	f.Read(engine.Event{Var: "rreq", Val: bits.FromUint64(1, 1)})
	var rdata uint64
	for i := 0; i < 3; i++ {
		step(f)
		if v, changed := drainVal(t, f, "rdata"); changed {
			rdata = v
		}
	}
	if rdata != 22 {
		t.Fatalf("pop not applied: rdata=%d", rdata)
	}
	// Device-side push surfaces on the host stream.
	f.Read(engine.Event{Var: "rreq", Val: bits.FromUint64(1, 0)})
	f.Read(engine.Event{Var: "wreq", Val: bits.FromUint64(1, 1)})
	f.Read(engine.Event{Var: "wdata", Val: bits.FromUint64(8, 99)})
	step(f)
	step(f)
	step(f)
	out := w.Stream("main.fifo").TakeOutput()
	if len(out) == 0 || out[0] != 99 {
		t.Fatalf("push not delivered: %v", out)
	}
}

func TestFIFODepthBound(t *testing.T) {
	w := NewWorld()
	f := NewFIFO("f", 8, 2, w)
	w.Stream("f").Push(1, 2, 3, 4, 5)
	step(f)
	if f.Depth() != 2 {
		t.Fatalf("depth=%d, want 2 (back pressure)", f.Depth())
	}
	if v, _ := drainVal(t, f, "full"); v != 1 {
		t.Fatal("full not asserted at depth")
	}
	if got := w.Stream("f").PendingIn(); got != 3 {
		t.Fatalf("host backlog=%d, want 3", got)
	}
}

func TestFIFOTransfersDelta(t *testing.T) {
	w := NewWorld()
	f := NewFIFO("f", 8, 8, w)
	w.Stream("f").Push(1, 2, 3)
	step(f)
	if got := f.TransfersDelta(); got != 3 {
		t.Fatalf("transfers=%d, want 3", got)
	}
	if got := f.TransfersDelta(); got != 0 {
		t.Fatalf("delta should reset: %d", got)
	}
}

func TestStateRoundTripFIFO(t *testing.T) {
	w := NewWorld()
	f := NewFIFO("f", 8, 8, w)
	w.Stream("f").Push(5, 6, 7)
	step(f)
	st := f.GetState()
	f2 := NewFIFO("f", 8, 8, w)
	f2.SetState(st)
	if f2.Depth() != 3 {
		t.Fatalf("queue not restored: depth=%d", f2.Depth())
	}
	if v, _ := drainVal(t, f2, "rdata"); v != 5 {
		t.Fatalf("head not restored: %d", v)
	}
}

func TestStateRoundTripMemory(t *testing.T) {
	m := NewMemory("m", 3, 8)
	m.Read(engine.Event{Var: "wen", Val: bits.FromUint64(1, 1)})
	m.Read(engine.Event{Var: "waddr", Val: bits.FromUint64(3, 5)})
	m.Read(engine.Event{Var: "wdata", Val: bits.FromUint64(8, 0x42)})
	step(m)
	step(m)
	st := m.GetState()
	m2 := NewMemory("m", 3, 8)
	m2.SetState(st)
	m2.Read(engine.Event{Var: "raddr", Val: bits.FromUint64(3, 5)})
	m2.Evaluate()
	if v, _ := drainVal(t, m2, "rdata"); v != 0x42 {
		t.Fatalf("memory word not restored: %x", v)
	}
}

func TestFactory(t *testing.T) {
	w := NewWorld()
	for _, typ := range []string{"Clock", "Pad", "Led", "Reset", "Memory", "FIFO"} {
		e, err := New("p", typ, nil, w)
		if err != nil {
			t.Fatalf("New(%s): %v", typ, err)
		}
		if e.Loc() != engine.Hardware {
			t.Fatalf("%s: stdlib engines live in hardware", typ)
		}
	}
	if _, err := New("p", "Bogus", nil, w); err == nil {
		t.Fatal("unknown component should fail")
	}
}

func TestRegistryMatchesEngines(t *testing.T) {
	reg := Registry()
	w := NewWorld()
	for name, spec := range reg {
		params := map[string]*bits.Vector{}
		for _, p := range spec.Params {
			params[p.Name] = p.Default
		}
		if _, err := New("p", name, params, w); err != nil {
			t.Fatalf("registry entry %s has no engine: %v", name, err)
		}
		for _, port := range spec.Ports {
			if w := port.Width(params); w < 1 {
				t.Fatalf("%s.%s width %d", name, port.Name, w)
			}
		}
	}
}
