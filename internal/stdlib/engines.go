package stdlib

import (
	"fmt"

	"cascade/internal/bits"
	"cascade/internal/engine"
	"cascade/internal/sim"
)

// base provides the output-broadcast plumbing shared by all stdlib
// engines. Outputs are addressed by declaration index; bit i of dirty
// says output i changed since the last drain, so a quiescent component
// drains in one branch.
type base struct {
	path  string
	outs  []output
	dirty uint64
}

type output struct {
	name string
	val  *bits.Vector
}

func newBase(path string) base { return base{path: path} }

// addOut declares the next output, dirty for the initial broadcast.
func (b *base) addOut(name string, width int) {
	b.dirty |= 1 << len(b.outs)
	b.outs = append(b.outs, output{name, bits.New(width)})
}

func (b *base) mark(i int, changed bool) {
	if changed {
		b.dirty |= 1 << i
	}
}

func (b *base) setOut(i int, v *bits.Vector) { b.mark(i, b.outs[i].val.CopyFrom(v)) }

func (b *base) setOutU(i int, v uint64) { b.mark(i, b.outs[i].val.SetUint64(v)) }

// Name returns the engine's instance path.
func (b *base) Name() string { return b.path }

// Loc reports hardware: stdlib components are pre-compiled engines placed
// on the fabric as soon as they are instantiated (paper §4.3).
func (b *base) Loc() engine.Location { return engine.Hardware }

// VisitWrites implements engine.WriteVisitor.
func (b *base) VisitWrites(fn func(name string, val *bits.Vector)) {
	dirty := b.dirty
	b.dirty = 0
	for i := 0; dirty != 0; i, dirty = i+1, dirty>>1 {
		if dirty&1 != 0 {
			fn(b.outs[i].name, b.outs[i].val)
		}
	}
}

// DrainWrites emits changed outputs.
func (b *base) DrainWrites() []engine.Event {
	if b.dirty == 0 {
		return nil
	}
	var evs []engine.Event
	b.VisitWrites(func(name string, val *bits.Vector) {
		evs = append(evs, engine.Event{Var: name, Val: val.Clone()})
	})
	return evs
}

// Default no-op ABI pieces, overridden where needed.
func (b *base) Read(engine.Event)     {}
func (b *base) ThereAreEvals() bool   { return false }
func (b *base) Evaluate()             {}
func (b *base) ThereAreUpdates() bool { return false }
func (b *base) Update()               {}
func (b *base) EndStep()              {}
func (b *base) End()                  {}

func (b *base) GetState() *sim.State {
	st := &sim.State{Scalars: map[string]*bits.Vector{}, Arrays: map[string][]*bits.Vector{}}
	for _, o := range b.outs {
		st.Scalars[o.name] = o.val.Clone()
	}
	return st
}

func (b *base) SetState(st *sim.State) {
	for i, o := range b.outs {
		if v, ok := st.Scalars[o.name]; ok {
			o.val.CopyFrom(v)
			// A restored output must be re-broadcast: the consumers may
			// have seen a different value in the meantime.
			b.mark(i, true)
		}
	}
}

// Clock is the standard global clock. It reports an update every
// scheduler iteration once armed; Update toggles val and EndStep re-arms
// the tick (paper §3.5). Two iterations therefore make one virtual tick.
type Clock struct {
	base
	armed bool
}

// NewClock returns a clock engine.
func NewClock(path string) *Clock {
	c := &Clock{base: newBase(path), armed: true}
	c.addOut("val", 1)
	return c
}

// ThereAreUpdates reports the armed tick.
func (c *Clock) ThereAreUpdates() bool { return c.armed }

// Update toggles the clock value.
func (c *Clock) Update() {
	if !c.armed {
		return
	}
	c.armed = false
	c.setOutU(0, c.Val()^1)
}

// EndStep re-queues the tick.
func (c *Clock) EndStep() { c.armed = true }

// Val returns the current clock value.
func (c *Clock) Val() uint64 { return c.outs[0].val.Uint64() }

// Pad is a bank of N push buttons driven from the World.
type Pad struct {
	base
	world *World
	width int
}

// NewPad returns a pad engine of the given width.
func NewPad(path string, width int, w *World) *Pad {
	p := &Pad{base: newBase(path), world: w, width: width}
	p.addOut("val", width)
	return p
}

// EndStep samples the physical buttons between time steps.
func (p *Pad) EndStep() { p.setOutU(0, p.world.Pad(p.path)) }

// Reset is a one-bit reset line driven from the World.
type Reset struct {
	base
	world *World
}

// NewReset returns a reset engine.
func NewReset(path string, w *World) *Reset {
	r := &Reset{base: newBase(path), world: w}
	r.addOut("val", 1)
	return r
}

// EndStep samples the reset line.
func (r *Reset) EndStep() {
	r.setOutU(0, b2u(r.world.reset(r.path)))
}

// Led is a bank of N LEDs whose value is observable on the World.
type Led struct {
	base
	world *World
	val   *bits.Vector
}

// NewLed returns an LED engine of the given width.
func NewLed(path string, width int, w *World) *Led {
	l := &Led{base: newBase(path), world: w, val: bits.New(width)}
	return l
}

// Read drives the LED bank; the side effect is immediately visible.
func (l *Led) Read(ev engine.Event) {
	if ev.Var != "val" {
		return
	}
	if l.val.CopyFrom(ev.Val) {
		l.world.setLed(l.path, l.val)
	}
}

// GetState exposes the driven value.
func (l *Led) GetState() *sim.State {
	return &sim.State{Scalars: map[string]*bits.Vector{"val": l.val.Clone()}}
}

// SetState restores the driven value.
func (l *Led) SetState(st *sim.State) {
	if v, ok := st.Scalars["val"]; ok {
		l.val.CopyFrom(v)
		l.world.setLed(l.path, l.val)
	}
}

// GPIO is a general-purpose IO bank of N pins in each direction: the
// host drives `in` (sampled between time steps, like Pad) and the device
// drives `out` (visible immediately, like Led).
type GPIO struct {
	base
	world *World
	out   *bits.Vector
}

// NewGPIO returns a GPIO engine with N pins per direction.
func NewGPIO(path string, width int, w *World) *GPIO {
	g := &GPIO{base: newBase(path), world: w, out: bits.New(width)}
	g.addOut("in", width)
	return g
}

// Read drives the device-side output pins.
func (g *GPIO) Read(ev engine.Event) {
	if ev.Var != "out" {
		return
	}
	if g.out.CopyFrom(ev.Val) {
		g.world.setGPIO(g.path, g.out)
	}
}

// EndStep samples the host-driven input pins.
func (g *GPIO) EndStep() { g.setOutU(0, g.world.gpioInVal(g.path)) }

// GetState exposes both directions.
func (g *GPIO) GetState() *sim.State {
	st := g.base.GetState()
	st.Scalars["out"] = g.out.Clone()
	return st
}

// SetState restores both directions.
func (g *GPIO) SetState(st *sim.State) {
	g.base.SetState(st)
	if v, ok := st.Scalars["out"]; ok {
		g.out.CopyFrom(v)
		g.world.setGPIO(g.path, g.out)
	}
}

// Memory is a simple synchronous-write, combinational-read RAM:
// Memory#(A, W) has 2^A words of W bits. Writes commit once per virtual
// clock tick while wen is asserted, aligned with the global clock's
// rising edge.
type Memory struct {
	base
	abits, width int
	words        []*bits.Vector
	raddr, waddr uint64
	wdata        *bits.Vector
	wen          bool
	evalPending  bool
	phase        int  // EndStep parity (even = rising-edge steps)
	sampled      bool // a write was sampled at the last rising edge
	sWaddr       uint64
	sWdata       *bits.Vector
	latched      bool // per-step one-shot
}

// NewMemory returns a memory engine with 2^abits words of the given
// width.
func NewMemory(path string, abits, width int) *Memory {
	n := 1 << abits
	m := &Memory{base: newBase(path), abits: abits, width: width, wdata: bits.New(width)}
	m.words = make([]*bits.Vector, n)
	for i := range m.words {
		m.words[i] = bits.New(width)
	}
	m.addOut("rdata", width)
	return m
}

// Read accepts address/data/enable inputs.
func (m *Memory) Read(ev engine.Event) {
	switch ev.Var {
	case "raddr":
		m.raddr = ev.Val.Uint64()
		m.evalPending = true
	case "waddr":
		m.waddr = ev.Val.Uint64()
	case "wdata":
		m.wdata.CopyFrom(ev.Val)
	case "wen":
		m.wen = ev.Val.Bool()
	}
}

// ThereAreEvals reports a pending read-port refresh.
func (m *Memory) ThereAreEvals() bool { return m.evalPending }

// Evaluate refreshes the combinational read port.
func (m *Memory) Evaluate() {
	m.evalPending = false
	if int(m.raddr) < len(m.words) {
		m.setOut(0, m.words[m.raddr])
	} else {
		m.setOutU(0, 0)
	}
}

// ThereAreUpdates reports pending sequential work: sampling the write
// port at rising-edge steps, or committing a sampled write at the
// following falling-edge step. The commit is delayed half a cycle
// (clock-to-output), so logic clocked on the rising edge never observes
// a write racing the clock.
func (m *Memory) ThereAreUpdates() bool {
	if m.latched {
		return false
	}
	if m.phase%2 == 0 {
		return m.wen
	}
	return m.sampled
}

// Update samples (rising) or commits (falling) the write port.
func (m *Memory) Update() {
	if !m.ThereAreUpdates() {
		return
	}
	m.latched = true
	if m.phase%2 == 0 {
		m.sampled = true
		m.sWaddr = m.waddr
		m.sWdata = m.wdata.Clone()
		return
	}
	m.sampled = false
	if int(m.sWaddr) < len(m.words) {
		if m.words[m.sWaddr].CopyFrom(m.sWdata) && m.sWaddr == m.raddr {
			m.evalPending = true
		}
	}
}

// EndStep advances the tick-parity counter and re-arms the port.
func (m *Memory) EndStep() {
	m.phase++
	m.latched = false
}

// GetState snapshots the memory contents, ports, clock-phase parity,
// and any in-flight sampled write (so a migration between time steps is
// exact).
func (m *Memory) GetState() *sim.State {
	st := m.base.GetState()
	words := make([]*bits.Vector, len(m.words))
	for i, w := range m.words {
		words[i] = w.Clone()
	}
	st.Arrays = map[string][]*bits.Vector{"words": words}
	st.Scalars["raddr"] = bits.FromUint64(64, m.raddr)
	st.Scalars["_phase"] = bits.FromUint64(8, uint64(m.phase&1))
	if m.sampled {
		st.Scalars["_swaddr"] = bits.FromUint64(64, m.sWaddr)
		st.Scalars["_swdata"] = m.sWdata.Clone()
	}
	return st
}

// SetState restores memory contents and in-flight write state.
func (m *Memory) SetState(st *sim.State) {
	m.base.SetState(st)
	if words, ok := st.Arrays["words"]; ok {
		for i := 0; i < len(words) && i < len(m.words); i++ {
			m.words[i].CopyFrom(words[i])
		}
	}
	if v, ok := st.Scalars["raddr"]; ok {
		m.raddr = v.Uint64()
	}
	if v, ok := st.Scalars["_phase"]; ok {
		m.phase = int(v.Uint64()) & 1
	}
	m.sampled = false
	if v, ok := st.Scalars["_swaddr"]; ok {
		m.sampled = true
		m.sWaddr = v.Uint64()
		m.sWdata = st.Scalars["_swdata"].Clone().Resize(m.width)
	}
	m.evalPending = true
}

// FIFO is a host-connected queue: FIFO#(W, D) carries W-bit words with a
// device-side depth of D. The host pushes words through
// World.Stream(path); the device pops one word per virtual tick by
// asserting rreq, and can send words back by asserting wreq. full/empty
// provide back pressure (paper §7.1).
type FIFO struct {
	base
	width, depth int
	q            []uint64 // host words are at most 64 bits wide
	rreq, wreq   bool
	wdata        *bits.Vector
	phase        int
	latched      bool // per-step one-shot
	popSampled   bool
	pushSampled  *bits.Vector // captured wdata, nil if none
	stream       *Stream
	transfers    uint64 // words moved across the host boundary
}

// FIFO output indices, in declaration order.
const (
	fifoRdata = iota
	fifoEmpty
	fifoFull
)

// NewFIFO returns a FIFO engine.
func NewFIFO(path string, width, depth int, w *World) *FIFO {
	f := &FIFO{base: newBase(path), width: width, depth: depth, wdata: bits.New(width), stream: w.Stream(path)}
	f.addOut("rdata", width)
	f.addOut("empty", 1)
	f.addOut("full", 1)
	f.setOutU(fifoEmpty, 1)
	return f
}

// Read accepts pop/push requests from user logic.
func (f *FIFO) Read(ev engine.Event) {
	switch ev.Var {
	case "rreq":
		f.rreq = ev.Val.Bool()
	case "wdata":
		f.wdata.CopyFrom(ev.Val)
	case "wreq":
		f.wreq = ev.Val.Bool()
	}
}

// ThereAreUpdates reports pending sequential work: rising-edge steps
// sample the pop/push requests simultaneously with the consumer latching
// rdata; the following falling-edge step applies them, so rdata/empty
// never change in the same delta as the clock edge (clock-to-output
// delay). At most one word moves per clock tick in each direction.
func (f *FIFO) ThereAreUpdates() bool {
	if f.latched {
		return false
	}
	if f.phase%2 == 0 {
		return (f.rreq && len(f.q) > 0) || f.wreq
	}
	return f.popSampled || f.pushSampled != nil
}

// Update samples (rising) or applies (falling) one pop and/or push.
func (f *FIFO) Update() {
	if !f.ThereAreUpdates() {
		return
	}
	f.latched = true
	if f.phase%2 == 0 {
		f.popSampled = f.rreq && len(f.q) > 0
		if f.wreq {
			// wreq is a level: one word per tick while held high.
			f.pushSampled = f.wdata.Clone()
		}
		return
	}
	if f.popSampled && len(f.q) > 0 {
		f.q = f.q[1:]
		f.popSampled = false
	}
	if f.pushSampled != nil {
		f.stream.put(f.pushSampled.Uint64())
		f.transfers++
		f.pushSampled = nil
	}
	f.refreshOutputs()
}

// EndStep refills from the host stream (respecting depth) and advances
// the parity counter.
func (f *FIFO) EndStep() {
	f.phase++
	f.latched = false
	if room := f.depth - len(f.q); room > 0 {
		had := len(f.q)
		f.q = f.stream.take(f.q, room)
		f.transfers += uint64(len(f.q) - had)
	}
	f.refreshOutputs()
}

func (f *FIFO) refreshOutputs() {
	if len(f.q) > 0 {
		f.setOutU(fifoRdata, f.q[0])
	}
	f.setOutU(fifoEmpty, b2u(len(f.q) == 0))
	f.setOutU(fifoFull, b2u(len(f.q) >= f.depth))
}

// Depth returns the device-side queue length (tests).
func (f *FIFO) Depth() int { return len(f.q) }

// TransfersDelta returns host-boundary word transfers since the last
// call; the runtime bills them as bus transactions (each word crosses
// the memory-mapped bridge, §6.2).
func (f *FIFO) TransfersDelta() uint64 {
	d := f.transfers
	f.transfers = 0
	return d
}

// GetState snapshots the queue, the clock-phase parity, and any
// in-flight sampled pop/push, making between-step migrations exact.
func (f *FIFO) GetState() *sim.State {
	st := f.base.GetState()
	words := make([]*bits.Vector, len(f.q))
	for i, w := range f.q {
		words[i] = bits.FromUint64(f.width, w)
	}
	st.Arrays = map[string][]*bits.Vector{"q": words}
	st.Scalars["_phase"] = bits.FromUint64(8, uint64(f.phase&1))
	if f.popSampled {
		st.Scalars["_pop"] = bits.FromUint64(1, 1)
	}
	if f.pushSampled != nil {
		st.Scalars["_push"] = f.pushSampled.Clone()
	}
	return st
}

// SetState restores the queue and in-flight state.
func (f *FIFO) SetState(st *sim.State) {
	f.base.SetState(st)
	if words, ok := st.Arrays["q"]; ok {
		f.q = nil
		for _, w := range words {
			f.q = append(f.q, w.Uint64())
		}
	}
	if v, ok := st.Scalars["_phase"]; ok {
		f.phase = int(v.Uint64()) & 1
	}
	f.popSampled = false
	if v, ok := st.Scalars["_pop"]; ok && v.Bool() {
		f.popSampled = true
	}
	f.pushSampled = nil
	if v, ok := st.Scalars["_push"]; ok {
		f.pushSampled = v.Clone().Resize(f.width)
	}
	f.refreshOutputs()
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// New constructs a stdlib engine by type name with resolved parameters.
func New(path, typ string, params map[string]*bits.Vector, w *World) (engine.Engine, error) {
	getInt := func(name string, dflt int) int {
		if v, ok := params[name]; ok {
			return int(v.Uint64())
		}
		return dflt
	}
	switch typ {
	case "Clock":
		return NewClock(path), nil
	case "Pad":
		return NewPad(path, getInt("N", 4), w), nil
	case "Led":
		return NewLed(path, getInt("N", 8), w), nil
	case "Reset":
		return NewReset(path, w), nil
	case "GPIO":
		return NewGPIO(path, getInt("N", 8), w), nil
	case "Memory":
		return NewMemory(path, getInt("A", 10), getInt("W", 32)), nil
	case "FIFO":
		return NewFIFO(path, getInt("W", 8), getInt("D", 256), w), nil
	}
	return nil, fmt.Errorf("stdlib: unknown component %s", typ)
}
