// Package lifecycle is the one implementation of the paper's Figure 9
// engine move: quiesce at a step boundary, read the engine's state,
// build the target, write the state, retire the source, swap.
// Promotion, eviction, failover, re-hosting and tear-down are that move
// parameterised by cause, for an engine in the owner's process or hosted
// for it on a daemon. Both owners of engines — the runtime's scheduler
// and the daemon host — keep one Placement per subprogram and call its
// transitions; neither builds, seeds or retires an engine itself, and
// each applies what a transition costs, counts and prints in one place
// (its settle), from the row the Transition names. Which compiles a move
// leaves owed is decided here (Transition.Owed); which of them an owner
// offers, by its Compile callback. What stays with the owner is what
// differs between them: a virtual clock to bill, the text of its reports,
// how a hosted engine is spawned (the Host callback) and how a new engine
// reaches the dispatch path (Swap).
package lifecycle

import (
	"errors"

	"cascade/internal/elab"
	"cascade/internal/engine"
	"cascade/internal/engine/hweng"
	"cascade/internal/engine/sweng"
	"cascade/internal/fault"
	"cascade/internal/fpga"
	"cascade/internal/njit"
	"cascade/internal/sim"
	"cascade/internal/toolchain"
)

// Tier is the execution rung an engine occupies.
type Tier int

// Tiers, lowest rung first. Unplaced means the owner holds no engine for
// the subprogram: not yet built, or torn down. Hosted means the engine
// Config.Host built: it runs somewhere else — for the runtime, on its
// daemon — and climbs that place's ladder, not this one.
const (
	Unplaced Tier = iota
	Hosted
	Interpreter
	Native
	Fabric
)

// String names the rung as runtime.EngineStat.Tier reports it ("" for
// Unplaced and Hosted: a hosted engine's rung is its host's to name).
func (t Tier) String() string {
	switch t {
	case Interpreter:
		return "interpreter"
	case Native:
		return "native"
	case Fabric:
		return "fabric"
	}
	return ""
}

// Cause says why a transition ran.
type Cause int

// Causes.
const (
	// Restart: the program was (re)integrated. Engines of the superseded
	// version are torn down; engines of the new one start on the
	// interpreter, their initial-block output kept.
	Restart Cause = iota
	// JobLanded: the background compile for a higher tier finished.
	JobLanded
	// FaultLatched: the engine latched a region or bus fault and falls
	// back to the interpreter with its state intact.
	FaultLatched
	// TransientFault: programming the fabric failed transiently; the
	// engine stays where it is and the compile is resubmitted.
	TransientFault
	// Shed: the toolchain shed the job under load, or its farm shard was
	// unreachable; the engine stays where it is and the compile is
	// resubmitted.
	Shed
	// BreakerTrip: the daemon hosting the engine is gone; an interpreter
	// is re-seeded locally from the last committed state.
	BreakerTrip
	// Recovered: the daemon answers again; the failed-over engine is
	// handed back to it.
	Recovered
)

// ladder is what a fresh interpreter owes: a compile for every tier above
// it, in submission order.
var ladder = []Tier{Fabric, Native}

// legal is the transition table: every (from, to, cause) move an engine
// may make, and the compiles the move leaves owed — the ladder for a
// fresh interpreter, the rung it fell from for a demoted one, nothing
// where no engine is left here to promote. TransientFault and Shed move
// no engine and have no rows; they owe the compile they lost again.
var legal = [...]struct {
	from, to Tier
	cause    Cause
	owed     []Tier
}{
	{Unplaced, Interpreter, Restart, ladder},
	{Unplaced, Hosted, Restart, nil},
	{Interpreter, Native, JobLanded, nil},
	{Interpreter, Fabric, JobLanded, nil},
	{Native, Fabric, JobLanded, nil},
	{Native, Interpreter, FaultLatched, []Tier{Native}},
	{Fabric, Interpreter, FaultLatched, []Tier{Fabric}},
	{Hosted, Interpreter, BreakerTrip, ladder},
	{Interpreter, Hosted, Recovered, nil},
	{Native, Hosted, Recovered, nil},
	{Unplaced, Unplaced, Restart, nil},
	{Hosted, Unplaced, Restart, nil},
	{Interpreter, Unplaced, Restart, nil},
	{Native, Unplaced, Restart, nil},
	{Fabric, Unplaced, Restart, nil},
}

// row finds the table's row for a move: what it leaves owed, and whether
// the table lists it at all.
func row(from, to Tier, cause Cause) (owed []Tier, ok bool) {
	for _, m := range legal {
		if m.from == from && m.to == to && m.cause == cause {
			return m.owed, true
		}
	}
	return nil, false
}

// Legal reports whether the table allows the move.
func Legal(from, to Tier, cause Cause) bool {
	_, ok := row(from, to, cause)
	return ok
}

// ErrIllegal is a refused transition's Err; the engine was not touched.
var ErrIllegal = errors.New("lifecycle: illegal transition")

// Config is what an owner knows about a subprogram when it is spawned:
// the flags every engine built for it is constructed with, and the
// owner's side of a transition.
type Config struct {
	Path string
	Flat *elab.Flat
	IO   engine.IOHandler
	Now  func() uint64 // $time feed

	Eager      bool            // interpreter: naive eager re-evaluation
	NativeMode bool            // fabric: compiled as written, no ABI wrapper (paper §4.5)
	Device     *fpga.Device    // the fabric promotions land on
	Injector   *fault.Injector // native tier's region-fault source (may be nil)

	// Host builds the subprogram's hosted engine — the runtime spawns it
	// on its daemon and returns the transport client; a callback because
	// the transport imports this package. Nil for an owner that hosts none.
	Host func(p *Placement) (engine.Engine, error)
	// Compile starts a background compile of the placement's design for
	// the target tier (Native or Fabric) at virtual time now, or declines
	// — returns nil — a tier the owner does not offer: each of them, with
	// its JIT off. d is the same record on every call, so the tiers and
	// every resubmission share one synthesis of Flat.
	Compile func(d *toolchain.Design, t Tier, now uint64) *toolchain.Job
	// Swap installs a built and seeded engine on the owner's dispatch
	// path. Nil when the owner dispatches through Engine().
	Swap func(p *Placement, e engine.Engine)
	// Discard drops the output a rebuilt interpreter's (or re-spawned
	// hosted engine's) initial blocks emitted at construction: the user saw
	// it when the program first integrated, and the handed-over state
	// overwrites their variable effects.
	Discard func(p *Placement)
}

// Placement is one subprogram's lifecycle record: where it executes
// now, what it was spawned with, and which compiles are in flight for
// it. Owners drive it only between time steps, from one goroutine.
type Placement struct {
	Config
	eng    engine.Engine
	tier   Tier
	design *toolchain.Design          // Flat's netlist, synthesized once for every compile
	jobs   [Fabric + 1]*toolchain.Job // pending compile per target tier
}

// New returns the record for a subprogram, Unplaced.
func New(cfg Config) *Placement { return NewFrom(nil, cfg) }

// NewFrom is New for the successor of prev (nil: none), the placement
// at the same path of the version being replaced: the design's synthesis
// starts from prev's (toolchain.NewDesignFrom).
func NewFrom(prev *Placement, cfg Config) *Placement {
	var base *toolchain.Design
	if prev != nil {
		base = prev.design
	}
	return &Placement{Config: cfg, design: toolchain.NewDesignFrom(base, cfg.Flat)}
}

// Engine returns the current engine (nil while Unplaced).
func (p *Placement) Engine() engine.Engine { return p.eng }

// Tier returns the rung the engine occupies.
func (p *Placement) Tier() Tier { return p.tier }

// Fabric returns the concrete hardware engine while the placement is on
// the fabric (forwarding and open-loop bursts need it), else nil.
func (p *Placement) Fabric() *hweng.Engine {
	hw, _ := p.eng.(*hweng.Engine)
	return hw
}

// Fault returns the fault the current engine latched, if any.
func (p *Placement) Fault() error {
	if f, ok := p.eng.(interface{ Fault() error }); ok {
		return f.Fault()
	}
	return nil
}

// Pending returns the compile in flight for target tier t, or nil.
func (p *Placement) Pending(t Tier) *toolchain.Job { return p.jobs[t] }

// Submit starts a compile for target tier t unless one is already in
// flight or the owner declines the tier; it reports whether it did.
// Owners call it for the tiers a Transition leaves owed, once they have
// billed the move.
func (p *Placement) Submit(t Tier, now uint64) bool {
	if p.jobs[t] == nil {
		p.jobs[t] = p.Compile(p.design, t, now)
		return p.jobs[t] != nil
	}
	return false
}

// Transition reports one serviced lifecycle event for the owner to
// settle: bill, count, report, and submit what is owed. A move that did
// not happen has From == To and Err set.
type Transition struct {
	From, To Tier
	Cause    Cause
	// Owed lists the compiles the transition leaves owed, in submission
	// order: the table's column for a move, the compile that was lost for
	// a Shed or TransientFault.
	Owed []Tier
	// Fault is the fault the source engine had latched (FaultLatched).
	Fault error
	// Result is the compile artifact a JobLanded transition consumed.
	Result *toolchain.Result
	// StateVars is the number of state elements compiled into a rebuilt
	// software engine (elaborated variables for the interpreter, here or
	// hosted; netlist slots for the native tier); 0 for fabric targets,
	// whose handoff is metered by the engine itself.
	StateVars int
	// Fabric is the hardware engine party to the move — the target of a
	// promotion, the source of an eviction — whose bus meter
	// (MsgsDelta) holds the handoff's traffic. Nil otherwise.
	Fabric *hweng.Engine
	// State is the state the target was seeded with (nil: none). The owner
	// of a hosted engine keeps it as the engine's first committed state.
	State *sim.State
	Err   error
}

// Start builds the subprogram's first engine on tier to (Interpreter or
// Hosted), seeding it when seed is non-nil. Initial-block output is kept.
func (p *Placement) Start(to Tier, seed *sim.State) Transition {
	return p.move(to, Restart, nil, seed)
}

// Promote services the compile pending for target tier t at virtual
// time now. It reports false when there is nothing to act on: no job,
// not ready yet, cancelled, the engine has a latched fault to demote
// first, or the artifact is stale because the engine already reached t
// or beyond (the job is dropped; the artifact stays cached).
func (p *Placement) Promote(t Tier, now uint64) (Transition, bool) {
	job := p.jobs[t]
	if job == nil || p.Fault() != nil {
		return Transition{}, false
	}
	if job.Canceled() {
		p.jobs[t] = nil
		return Transition{}, false
	}
	if !job.Ready(now) {
		return Transition{}, false
	}
	p.jobs[t] = nil
	res := job.Result()
	if res.Err != nil {
		tr := Transition{From: p.tier, To: p.tier, Cause: JobLanded, Err: res.Err}
		// A shed or a farm outage is a backoff signal, not a verdict on
		// the design: owed again, now that the virtual clock has moved on.
		if errors.Is(res.Err, toolchain.ErrOverloaded) || errors.Is(res.Err, toolchain.ErrShardUnavailable) {
			tr.Cause, tr.Owed = Shed, []Tier{t}
		}
		return tr, true
	}
	if !Legal(p.tier, t, JobLanded) {
		return Transition{}, false
	}
	tr := p.move(t, JobLanded, res, nil)
	// A bitstream lost on the way to the fabric is not fatal: the
	// bitstream cache makes the retry nearly free. Permanent errors (no
	// room) leave the engine in software for good.
	if tr.Err != nil && fault.IsTransient(tr.Err) {
		tr.Cause, tr.Owed = TransientFault, []Tier{t}
	}
	return tr, true
}

// Demote rebuilds the subprogram on the interpreter: from a faulted
// native or fabric engine, carrying its state (FaultLatched; seed is
// ignored), or from a hosted engine whose daemon is gone, seeded with
// the last state the owner committed (BreakerTrip).
func (p *Placement) Demote(cause Cause, seed *sim.State) Transition {
	return p.move(Interpreter, cause, nil, seed)
}

// Rehost hands a failed-over engine back to the host, carrying its
// state. A spawn or handoff that fails leaves it running where it is.
func (p *Placement) Rehost() Transition {
	return p.move(Hosted, Recovered, nil, nil)
}

// Teardown retires the placement: pending compiles are cancelled
// (finished flows stay in the toolchain's cache), the engine is ended —
// a hosted one on its host — and its fabric region released.
func (p *Placement) Teardown() Transition {
	return p.move(Unplaced, Restart, nil, nil)
}

// move is the transition primitive. It refuses moves the table does not
// list without touching the engine; otherwise it builds the target,
// hands the source's state (or seed) over, retires the source and gives
// the target to the owner.
func (p *Placement) move(to Tier, cause Cause, res *toolchain.Result, seed *sim.State) Transition {
	tr := Transition{From: p.tier, To: p.tier, Cause: cause, Result: res, Fault: p.Fault()}
	owed, ok := row(p.tier, to, cause)
	if !ok {
		tr.Err = ErrIllegal
		return tr
	}
	var dst engine.Engine
	switch to {
	case Hosted:
		dst, tr.Err = p.Host(p)
		tr.StateVars = len(p.Flat.Vars)
	case Interpreter:
		dst = sweng.New(p.Flat, p.IO, p.Now, p.Eager)
		tr.StateVars = len(p.Flat.Vars)
	case Native:
		dst = njit.New(p.Path, res.Prog, p.IO, p.Injector, p.Now)
		tr.StateVars = len(res.Prog.Slots)
	case Fabric:
		var hw *hweng.Engine
		if hw, tr.Err = hweng.New(p.Path, res.Prog, p.Device, res.AreaLEs, p.IO, p.NativeMode, p.Now); hw != nil {
			dst, tr.Fabric = hw, hw
		}
	}
	if tr.Err != nil {
		return tr
	}
	if (to == Hosted || to == Interpreter) && cause != Restart && p.Discard != nil {
		p.Discard(p) // the two rungs whose construction runs initial blocks
	}
	src := p.eng
	if src != nil && dst != nil && cause != BreakerTrip {
		// State is readable even from a faulted engine: the ABI wrapper's
		// shadow registers exist for exactly this. Of one whose daemon is
		// gone, the owner's seed is all that is left.
		seed = src.GetState()
	}
	if dst != nil && seed != nil {
		dst.SetState(seed)
		// Only a hosted target's handoff crosses a wire and can fail. One
		// that did is ended, half-seeded as it is, and the source stays.
		if h, ok := dst.(interface{ Err() error }); ok && h.Err() != nil {
			dst.End()
			tr.Err = h.Err()
			return tr
		}
		tr.State = seed
	}
	if src != nil {
		// A hosted source out of reach, as a BreakerTrip usually finds it, is
		// ended once its daemon answers again (transport.Client.End).
		src.End()
		if hw := p.Fabric(); hw != nil {
			hw.Release()
			tr.Fabric = hw
		}
	}
	if to == Unplaced || to == Hosted {
		// Nothing is left here to promote.
		for t, j := range p.jobs {
			if j != nil {
				j.Cancel()
				p.jobs[t] = nil
			}
		}
	}
	p.eng, p.tier, tr.To, tr.Owed = dst, to, to, owed
	if dst != nil && p.Swap != nil {
		p.Swap(p, dst)
	}
	return tr
}
