package stdlib

import (
	"fmt"

	"cascade/internal/bits"
	"cascade/internal/elab"
	"cascade/internal/engine"
)

// base provides the output-broadcast plumbing and the state image shared
// by all stdlib engines. Outputs are addressed by declaration index; bit
// i of dirty says output i changed since the last drain, so a quiescent
// component drains in one branch. vars are the state layout's variables
// — the outputs, then what else the component keeps — and fields what
// holds each.
type base struct {
	path   string
	outs   []output
	dirty  uint64
	vars   []*elab.Var
	fields []any
	layout *elab.Layout
}

type output struct {
	name string
	val  *bits.Vector
}

func newBase(path string) base { return base{path: path} }

// addOut declares the next output, dirty for the initial broadcast, and
// the next variable of the state.
func (b *base) addOut(name string, width int) {
	b.dirty |= 1 << len(b.outs)
	b.outs = append(b.outs, output{name, bits.New(width)})
	b.state(name, width, 0, b.outs[len(b.outs)-1].val)
}

// state declares the next variable of the component's state — n
// elements for a memory, 0 for a scalar — and the field holding it: a
// vector, a memory ([]*bits.Vector) or a word (*uint64, *bool); a
// nil one the component's own GetState and SetState fill and read.
func (b *base) state(name string, width, n int, field any) {
	b.vars = append(b.vars, &elab.Var{Name: name, Index: len(b.vars), Width: max(width, 1), ArrayLen: n})
	b.fields = append(b.fields, field)
}

// Layout returns the component's state layout, which its parameters
// alone fix.
func (b *base) Layout() *elab.Layout {
	if b.layout == nil {
		b.layout = elab.NewLayout(b.vars, nil)
	}
	return b.layout
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

// VisitWrites implements engine.Engine.
func (b *base) VisitWrites(fn func(name string, val *bits.Vector)) {
	dirty := b.dirty
	b.dirty = 0
	for i := 0; dirty != 0; i, dirty = i+1, dirty>>1 {
		if dirty&1 != 0 {
			fn(b.outs[i].name, b.outs[i].val)
		}
	}
}

// DrainWrites implements engine.Engine. A quiescent component answers
// without building the collector.
func (b *base) DrainWrites() []engine.Event {
	if b.dirty == 0 {
		return nil
	}
	return engine.Collect(b)
}

// Default no-op ABI pieces, overridden where needed.
func (b *base) Read(engine.Event)     {}
func (b *base) ThereAreEvals() bool   { return false }
func (b *base) Evaluate()             {}
func (b *base) ThereAreUpdates() bool { return false }
func (b *base) Update()               {}
func (b *base) EndStep()              {}
func (b *base) End()                  {}

// GetState implements engine.Engine: a fresh image of the state.
func (b *base) GetState() []uint64 {
	l := b.Layout()
	img := make([]uint64, l.Len())
	for i, f := range b.fields {
		w := l.Of(img, i)
		switch f := f.(type) {
		case *bits.Vector:
			copy(w, f.Words())
		case []*bits.Vector:
			for _, e := range f {
				w = w[copy(w, e.Words()):]
			}
		case *uint64:
			w[0] = *f
		case *bool:
			w[0] = b2u(*f)
		}
	}
	return img
}

// SetState implements engine.Engine, each value truncated to its width.
// Restored outputs are re-broadcast: the consumers may have seen
// different values in the meantime.
func (b *base) SetState(img []uint64) {
	l := b.Layout()
	for i, f := range b.fields {
		v, w := l.Vars[i], l.Of(img, i)
		switch f := f.(type) {
		case *bits.Vector:
			src := bits.Wrap(v.Width, w)
			f.CopyFrom(&src)
		case []*bits.Vector:
			for n := bits.WordsFor(v.Width); len(f) > 0; w, f = w[n:], f[1:] {
				src := bits.Wrap(v.Width, w[:n])
				f[0].CopyFrom(&src)
			}
		case *uint64:
			*f = w[0]
		case *bool:
			*f = w[0] != 0
		}
	}
	b.dirty = 1<<len(b.outs) - 1
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
}

// NewPad returns a pad engine of the given width.
func NewPad(path string, width int, w *World) *Pad {
	p := &Pad{base: newBase(path), world: w}
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
	l.state("val", width, 0, l.val)
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

// SetState implements engine.Engine: the restored value is driven.
func (l *Led) SetState(img []uint64) {
	l.base.SetState(img)
	l.world.setLed(l.path, l.val)
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
	g.state("out", width, 0, g.out)
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

// SetState implements engine.Engine: the restored output pins are
// driven.
func (g *GPIO) SetState(img []uint64) {
	g.base.SetState(img)
	g.world.setGPIO(g.path, g.out)
}

// Memory is a simple synchronous-write, combinational-read RAM:
// Memory#(A, W) has 2^A words of W bits. Writes commit once per virtual
// clock tick while wen is asserted, aligned with the global clock's
// rising edge.
type Memory struct {
	base
	words        []*bits.Vector
	raddr, waddr uint64
	wdata        *bits.Vector
	wen          bool
	evalPending  bool
	phase        uint64       // EndStep parity (even = rising-edge steps)
	sampled      bool         // a write was sampled at the last rising edge
	sWaddr       uint64       // the sampled write, zero once committed
	sWdata       *bits.Vector //
	latched      bool         // per-step one-shot
}

// NewMemory returns a memory engine with 2^abits words of the given
// width. Its state is the contents, the read port, the clock-phase parity
// and any in-flight sampled write (so a migration between time steps is
// exact).
func NewMemory(path string, abits, width int) *Memory {
	n := 1 << abits
	m := &Memory{base: newBase(path), wdata: bits.New(width), sWdata: bits.New(width)}
	m.words = make([]*bits.Vector, n)
	for i := range m.words {
		m.words[i] = bits.New(width)
	}
	m.addOut("rdata", width)
	m.state("words", width, n, m.words)
	m.state("raddr", 64, 0, &m.raddr)
	m.state("_phase", 8, 0, &m.phase)
	m.state("#sampled", 1, 0, &m.sampled)
	m.state("_swaddr", 64, 0, &m.sWaddr)
	m.state("_swdata", width, 0, m.sWdata)
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
	if m.raddr < uint64(len(m.words)) {
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
		m.sWdata.CopyFrom(m.wdata)
		return
	}
	m.sampled = false
	if m.sWaddr < uint64(len(m.words)) {
		if m.words[m.sWaddr].CopyFrom(m.sWdata) && m.sWaddr == m.raddr {
			m.evalPending = true
		}
	}
	m.sWaddr = 0
	m.sWdata.SetUint64(0)
}

// EndStep advances the tick-parity counter and re-arms the port.
func (m *Memory) EndStep() {
	m.phase ^= 1
	m.latched = false
}

// SetState implements engine.Engine: the read port is refreshed.
func (m *Memory) SetState(img []uint64) {
	m.base.SetState(img)
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
	phase        uint64
	latched      bool // per-step one-shot
	popSampled   bool
	pushed       bool         // a push was sampled
	pushData     *bits.Vector // the sampled push, zero once applied
	stream       *Stream
	transfers    uint64 // words moved across the host boundary
}

// FIFO output indices, in declaration order, and the queue's in its
// layout (after its count word).
const (
	fifoRdata = iota
	fifoEmpty
	fifoFull
	fifoQ = iota + 1
)

// NewFIFO returns a FIFO engine. Its state is the queue (a count word,
// then depth words), the clock-phase parity, and any in-flight sampled
// pop or push, making between-step migrations exact.
func NewFIFO(path string, width, depth int, w *World) *FIFO {
	f := &FIFO{base: newBase(path), width: width, depth: depth,
		wdata: bits.New(width), pushData: bits.New(width), stream: w.Stream(path)}
	f.addOut("rdata", width)
	f.addOut("empty", 1)
	f.addOut("full", 1)
	f.state("#n", 64, 0, nil)
	f.state("q", width, max(depth, 1), nil)
	f.state("_phase", 8, 0, &f.phase)
	f.state("_pop", 1, 0, &f.popSampled)
	f.state("#pushed", 1, 0, &f.pushed)
	f.state("_push", width, 0, f.pushData)
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
	return f.popSampled || f.pushed
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
			f.pushed = true
			f.pushData.CopyFrom(f.wdata)
		}
		return
	}
	if f.popSampled && len(f.q) > 0 {
		f.q = f.q[1:]
		f.popSampled = false
	}
	if f.pushed {
		f.stream.put(f.pushData.Uint64())
		f.transfers++
		f.pushed = false
		f.pushData.SetUint64(0)
	}
	f.refreshOutputs()
}

// EndStep refills from the host stream (respecting depth) and advances
// the parity counter.
func (f *FIFO) EndStep() {
	f.phase ^= 1
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

// GetState implements engine.Engine, adding the queue.
func (f *FIFO) GetState() []uint64 {
	img := f.base.GetState()
	q, n := f.layout.Of(img, fifoQ), bits.WordsFor(f.width)
	f.layout.Of(img, fifoQ-1)[0] = uint64(len(f.q))
	for i, w := range f.q {
		q[i*n] = w
	}
	return img
}

// SetState implements engine.Engine, restoring the queue up to its depth.
func (f *FIFO) SetState(img []uint64) {
	f.base.SetState(img)
	q, n := f.layout.Of(img, fifoQ), bits.WordsFor(f.width)
	f.q = f.q[:0]
	for i := range min(f.layout.Of(img, fifoQ-1)[0], uint64(f.depth)) {
		f.q = append(f.q, q[int(i)*n])
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

// Layout returns the state layout of a component of type typ with
// resolved parameters params (nil for an unknown type): its outputs, under
// their port names (a merged root reads them under ir.PrefixOf's), then
// what else it keeps, presence and count words named as no Verilog
// variable can be.
func Layout(typ string, params map[string]*bits.Vector) *elab.Layout {
	e, err := New("", typ, params, NewWorld())
	if err != nil {
		return nil
	}
	return e.(interface{ Layout() *elab.Layout }).Layout()
}

// Carried is the bus words an image of a component's state carries:
// every variable, except that a FIFO's queue carries only the words its
// count holds, an in-flight write or push and a sampled pop only while
// there is one, and presence and count words none.
func Carried(typ string, l *elab.Layout, img []uint64) uint64 {
	bus := l.Bus()
	unset := func(name string) bool { return l.Of(img, l.Index(name))[0] == 0 }
	drop := func(when bool, names ...string) {
		for _, name := range names {
			bus -= l.VarBus(l.Index(name)) * b2u(when)
		}
	}
	switch typ {
	case "Memory":
		drop(true, "#sampled")
		drop(unset("#sampled"), "_swaddr", "_swdata")
	case "FIFO":
		drop(true, "#n", "#pushed")
		drop(unset("_pop"), "_pop")
		drop(unset("#pushed"), "_push")
		q := l.Vars[fifoQ]
		bus -= (uint64(q.ArrayLen) - min(l.Of(img, fifoQ-1)[0], uint64(q.ArrayLen))) * uint64((q.Width+31)/32)
	}
	return bus
}
