package lifecycle

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cascade/internal/bits"
	"cascade/internal/elab"
	"cascade/internal/engine"
	"cascade/internal/engine/sweng"
	"cascade/internal/fault"
	"cascade/internal/fpga"
	"cascade/internal/toolchain"
	"cascade/internal/verilog"
	"cascade/internal/workloads/nw"
	"cascade/internal/workloads/pow"
	"cascade/internal/workloads/regexgen"
)

// nullIO swallows system-task output.
type nullIO struct{}

func (nullIO) Display(string, bool) {}
func (nullIO) Finish(int)           {}

// rig is one placement over a real toolchain and device, recording what
// the owner callbacks saw.
type rig struct {
	p        *Placement
	dev      *fpga.Device
	swapped  engine.Engine // last engine handed to Swap
	discards int
	hosted   []*fakeHosted       // every engine Host built, in order
	hostErr  error               // the next Host call's refusal
	dropSet  bool                // the next hosted engine loses its SetState
	declines Tier                // the tier the owner does not offer (Unplaced: none)
	designs  []*toolchain.Design // the record each Compile call was handed, in order
	tc       *toolchain.Toolchain
}

// fakeHosted stands in for the transport client the runtime's Host
// callback returns: an interpreter somewhere else, whose handoff can be
// lost on the way and whose daemon can go away.
type fakeHosted struct {
	engine.Engine
	t       *testing.T
	dropSet bool
	err     error
	lost    bool // unreachable: reading it is a test failure
	ended   bool
}

func (f *fakeHosted) SetState(st []uint64) {
	if f.dropSet {
		f.err = errors.New("handoff lost")
		return
	}
	f.Engine.SetState(st)
}

func (f *fakeHosted) GetState() []uint64 {
	if f.lost {
		f.t.Error("state read from a hosted engine whose daemon is gone")
	}
	return f.Engine.GetState()
}

func (f *fakeHosted) Err() error { return f.err }

func (f *fakeHosted) End() {
	f.ended = true
	f.Engine.End()
}

// never is a virtual time no compile is still running at.
const never = 1 << 62

func newRig(t *testing.T, src string, inj *fault.Injector) *rig {
	t.Helper()
	return newRigOpts(t, src, inj, toolchain.DefaultOptions())
}

func newRigOpts(t *testing.T, src string, inj *fault.Injector, opts toolchain.Options) *rig {
	t.Helper()
	st, errs := verilog.ParseSourceText(src)
	if errs != nil {
		t.Fatalf("parse: %v", errs)
	}
	flat, err := elab.Elaborate(st.Modules[0], "dut", nil)
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	r := &rig{dev: fpga.NewCycloneV()}
	tc := toolchain.New(r.dev, opts)
	r.tc = tc
	r.p = New(Config{
		Path:     "dut",
		Flat:     flat,
		IO:       nullIO{},
		Device:   r.dev,
		Injector: inj,
		Host: func(p *Placement) (engine.Engine, error) {
			if err := r.hostErr; err != nil {
				r.hostErr = nil
				return nil, err
			}
			h := &fakeHosted{Engine: sweng.New(p.Flat, p.IO, p.Now, false), t: t, dropSet: r.dropSet}
			r.dropSet = false
			r.hosted = append(r.hosted, h)
			return h, nil
		},
		Compile: func(d *toolchain.Design, tier Tier, now uint64) *toolchain.Job {
			r.designs = append(r.designs, d)
			if tier == r.declines {
				return nil
			}
			return tc.SubmitDesign(context.Background(), "", d, tier == Fabric, tier == Native, now)
		},
		Swap:    func(_ *Placement, e engine.Engine) { r.swapped = e },
		Discard: func(*Placement) { r.discards++ },
	})
	return r
}

// oneDesign holds the placement to one design record: every Compile call
// was handed the same one, over the placement's Flat, so however many
// flows ran, synthesis ran at most once (a record synthesizes once:
// toolchain's TestOneSynthesisPerDesign).
func (r *rig) oneDesign(t *testing.T, compiled bool) {
	t.Helper()
	if compiled && len(r.designs) == 0 {
		t.Fatal("compiles were owed, and Compile never called")
	}
	for _, d := range r.designs {
		if d != r.designs[0] || d.Flat != r.p.Flat {
			t.Fatalf("Compile was handed different design records for one placement: %p, %p", d, r.designs[0])
		}
	}
}

// run drives the current engine through n clock ticks of random input.
func (r *rig) run(rnd *rand.Rand, n int) {
	e := r.p.Engine()
	for i := 0; i < 2*n; i++ {
		for _, v := range r.p.Flat.Inputs {
			val := bits.FromUint64(v.Width, rnd.Uint64())
			if v.Name == "clk" {
				val = bits.FromUint64(1, uint64(i%2))
			}
			e.Read(engine.Event{Var: v.Name, Val: val})
		}
		for e.ThereAreEvals() || e.ThereAreUpdates() {
			e.Evaluate()
			if e.ThereAreUpdates() {
				e.Update()
			}
		}
		e.EndStep()
		engine.Collect(e)
	}
}

// reach walks the placement from Unplaced up to tier along legal moves,
// running a little on every rung so each handoff carries live state.
func (r *rig) reach(t *testing.T, rnd *rand.Rand, tier Tier) {
	t.Helper()
	if tier == Unplaced {
		return
	}
	first := Interpreter
	if tier == Hosted {
		first = Hosted
	}
	if tr := r.p.Start(first, nil); tr.Err != nil {
		t.Fatalf("start: %v", tr.Err)
	}
	r.run(rnd, 20)
	if tier == first {
		return
	}
	r.p.Submit(tier, 0)
	if tr, ok := r.p.Promote(tier, never); !ok || tr.Err != nil {
		t.Fatalf("promote to %v: ok=%v err=%v", tier, ok, tr.Err)
	}
	r.run(rnd, 20)
}

// whole seeds a new engine with the whole of img.
func whole(img []uint64) Seed { return func(dst []uint64) uint64 { return uint64(copy(dst, img)) } }

func sig(e engine.Engine) string { return fmt.Sprint(e.GetState()) }

func workloads(t *testing.T) map[string]string {
	rx, _, err := regexgen.Generate("(ab|cd)+e")
	if err != nil {
		t.Fatal(err)
	}
	return map[string]string{
		"pow":         pow.Generate(pow.DefaultConfig()),
		"regexstream": rx,
		"nw":          nw.Generate(nw.DefaultConfig()),
	}
}

// The table's axes. TestLegalMovesPreserveState and
// TestIllegalMovesRefused between them visit every cell of the product.
var (
	tiers  = []Tier{Unplaced, Hosted, Interpreter, Native, Fabric}
	causes = []Cause{Restart, JobLanded, FaultLatched, TransientFault, Shed, BreakerTrip, Recovered}
)

// eachTriple visits the full Tier × Tier × Cause product.
func eachTriple(visit func(from, to Tier, cause Cause)) {
	for _, from := range tiers {
		for _, to := range tiers {
			for _, cause := range causes {
				visit(from, to, cause)
			}
		}
	}
}

// wantOwed is the table's owed-compile column, spelled out: a fresh
// interpreter owes every tier above it, fabric first; one that fell off a
// rung owes that rung; an engine that climbed, left for the host or was
// torn down owes nothing.
func wantOwed(from, to Tier, cause Cause) []Tier {
	switch {
	case to != Interpreter:
		return nil
	case cause == FaultLatched:
		return []Tier{from}
	}
	return []Tier{Fabric, Native}
}

// TestLegalMovesPreserveState: every cell of the product the table lists
// — and the product holds every row of the table, once — hands the
// engine's state over exactly, retires the source (a fabric source's
// region is released, a hosted one is ended where it is hosted, and one
// a BreakerTrip cut off is never read), gives the owner the new engine,
// and names the compiles the move leaves owed — which the owner may
// decline tier by tier, leaving no job pending for a tier it declines.
func TestLegalMovesPreserveState(t *testing.T) {
	rows := 0
	eachTriple(func(from, to Tier, cause Cause) {
		if Legal(from, to, cause) {
			rows++
		}
	})
	if rows != len(legal) {
		t.Fatalf("the product holds %d legal moves, the table %d rows: a row is out of range or listed twice", rows, len(legal))
	}
	for name, src := range workloads(t) {
		eachTriple(func(from, to Tier, cause Cause) {
			if !Legal(from, to, cause) {
				return
			}
			t.Run(name+"/"+from.String()+"->"+to.String(), func(t *testing.T) {
				rnd := rand.New(rand.NewSource(7))
				r := newRig(t, src, nil)
				r.reach(t, rnd, from)
				p, source := r.p, r.p.Engine()
				var want string
				var seed Seed
				if source != nil {
					want = sig(source)
				} else if to != Unplaced {
					// Nothing to carry over: seed with a state worth carrying.
					donor := newRig(t, src, nil)
					donor.reach(t, rnd, Interpreter)
					seed, want = whole(donor.p.Engine().GetState()), sig(donor.p.Engine())
				}
				var tr Transition
				switch cause {
				case JobLanded:
					p.Submit(to, 0)
					var ok bool
					if tr, ok = p.Promote(to, never); !ok {
						t.Fatal("promote found nothing to act on")
					}
					if tr.Result == nil || p.Pending(to) != nil {
						t.Fatalf("landed job not consumed: result=%v pending=%v", tr.Result, p.Pending(to))
					}
				case FaultLatched:
					tr = p.Demote(cause, nil)
				case BreakerTrip:
					// The owner's last commit is all that is left of the engine.
					seed = whole(source.GetState())
					r.hosted[0].lost = true
					tr = p.Demote(cause, seed)
				case Recovered:
					p.Submit(Native, 0)
					tr = p.Rehost()
				case Restart:
					if to == Unplaced {
						p.Submit(Fabric, 0)
						tr = p.Teardown()
					} else {
						tr = p.Start(to, seed)
					}
				}
				if tr.Err != nil || tr.From != from || tr.To != to || tr.Cause != cause {
					t.Fatalf("transition %+v, want %v->%v cause %v", tr, from, to, cause)
				}
				if p.Tier() != to {
					t.Fatalf("tier %v after move, want %v", p.Tier(), to)
				}
				if want := wantOwed(from, to, cause); !reflect.DeepEqual(tr.Owed, want) {
					t.Fatalf("%v->%v cause %v leaves %v owed, want %v", from, to, cause, tr.Owed, want)
				}
				for _, declined := range tr.Owed {
					r.declines = declined
					for _, tier := range tr.Owed {
						if got := p.Submit(tier, 0); got != (tier != declined) || (p.Pending(tier) != nil) != got {
							t.Fatalf("owner declines %v: Submit(%v) = %v, pending %v", declined, tier, got, p.Pending(tier))
						}
						if j := p.Pending(tier); j != nil {
							j.Cancel()
							p.jobs[tier] = nil
						}
					}
				}
				r.declines = Unplaced
				// Reaching the source tier, the move and the owed submissions
				// all compiled one record: the design synthesizes once.
				r.oneDesign(t, len(tr.Owed) > 0)
				if rebuilt := cause != Restart && (to == Hosted || to == Interpreter); (r.discards == 1) != rebuilt {
					t.Fatalf("re-run initial blocks' output discarded %d times on %v->%v cause %v", r.discards, from, to, cause)
				}
				if from == Fabric && r.dev.Used() != 0 {
					t.Fatalf("fabric source left %d LEs placed", r.dev.Used())
				}
				if from == Hosted && !r.hosted[0].ended {
					t.Fatal("hosted source was not ended")
				}
				if (to == Unplaced || to == Hosted) && (p.Pending(Native) != nil || p.Pending(Fabric) != nil) {
					t.Fatal("a compile is still pending with no engine here to promote")
				}
				if to == Unplaced {
					if p.Engine() != nil {
						t.Fatal("torn-down placement still holds an engine")
					}
					return
				}
				if p.Engine() == source || r.swapped != p.Engine() {
					t.Fatal("owner was not handed the new engine")
				}
				if (tr.Fabric != nil) != (from == Fabric || to == Fabric) {
					t.Fatalf("Transition.Fabric = %v on %v->%v", tr.Fabric, from, to)
				}
				if got := sig(p.Engine()); got != want {
					t.Fatalf("state changed across the move:\nwant %s\ngot  %s", want, got)
				}
				if tr.State == nil || fmt.Sprint(tr.State) != want {
					t.Fatal("Transition.State is not the state handed over")
				}
				// The moved engine runs on from that state.
				r.run(rnd, 5)
			})
		})
	}
}

// TestIllegalMovesRefused: every cell of the product the table does not
// list is refused with ErrIllegal, the engine, its state and any pending
// compile untouched.
func TestIllegalMovesRefused(t *testing.T) {
	src := workloads(t)["regexstream"]
	for _, from := range tiers {
		rnd := rand.New(rand.NewSource(11))
		r := newRig(t, src, nil)
		r.reach(t, rnd, from)
		p, e := r.p, r.p.Engine()
		var want string
		if e != nil {
			want = sig(e)
		}
		p.Submit(Fabric, 0)
		job := p.Pending(Fabric)
		refused := 0
		eachTriple(func(f, to Tier, cause Cause) {
			if f != from || Legal(from, to, cause) {
				return
			}
			refused++
			tr := p.move(to, cause, nil, nil)
			if tr.Err != ErrIllegal || tr.From != from || tr.To != from {
				t.Errorf("%v->%v cause %d: %+v, want ErrIllegal in place", from, to, cause, tr)
			}
			if p.Engine() != e || p.Tier() != from || (e != nil && sig(e) != want) ||
				p.Pending(Fabric) != job || job.Canceled() || len(r.hosted) > 1 {
				t.Fatalf("%v->%v cause %d touched the engine", from, to, cause)
			}
		})
		if refused == 0 {
			t.Fatalf("no illegal move out of %v exercised", from)
		}
	}
}

// TestRehostFailureKeepsSource: the one move whose target is built and
// seeded over a wire. A spawn the host refuses, or a handoff that does
// not arrive, leaves the failed-over engine running where it is, its
// pending compile in flight and nothing half-seeded behind; the next
// attempt goes through.
func TestRehostFailureKeepsSource(t *testing.T) {
	src := workloads(t)["regexstream"]
	rnd := rand.New(rand.NewSource(13))
	r := newRig(t, src, nil)
	r.reach(t, rnd, Interpreter)
	p, e, want := r.p, r.p.Engine(), sig(r.p.Engine())
	p.Submit(Native, 0)
	job := p.Pending(Native)
	kept := func(what string, tr Transition) {
		t.Helper()
		if tr.Err == nil || tr.From != Interpreter || tr.To != Interpreter || tr.Cause != Recovered {
			t.Fatalf("%s: %+v, want an error in place", what, tr)
		}
		if p.Engine() != e || p.Tier() != Interpreter || sig(e) != want || r.swapped != e {
			t.Fatalf("%s: the source was disturbed", what)
		}
		if p.Pending(Native) != job || job.Canceled() {
			t.Fatalf("%s: the source's pending compile was dropped", what)
		}
	}
	r.hostErr = errors.New("spawn refused")
	kept("refused spawn", p.Rehost())
	if len(r.hosted) != 0 {
		t.Fatal("a refused spawn built an engine")
	}
	r.dropSet = true
	kept("lost handoff", p.Rehost())
	if len(r.hosted) != 1 || !r.hosted[0].ended {
		t.Fatal("the half-seeded target was left behind")
	}
	r.run(rnd, 5) // still on the source
	want = sig(e)
	if tr := p.Rehost(); tr.Err != nil || p.Tier() != Hosted || sig(p.Engine()) != want {
		t.Fatalf("retry: %+v", tr)
	}
}

// TestPromoteRefusals covers the refusals owners can actually provoke
// through Promote: a native artifact landing after the fabric already
// took the engine (fabric -> native, and promoting past a newer tier),
// and any promotion of an engine with a latched fault.
func TestPromoteRefusals(t *testing.T) {
	src := workloads(t)["regexstream"]
	t.Run("stale native artifact", func(t *testing.T) {
		rnd := rand.New(rand.NewSource(3))
		r := newRig(t, src, nil)
		r.reach(t, rnd, Fabric)
		p, e, want := r.p, r.p.Engine(), sig(r.p.Engine())
		p.Submit(Native, 0)
		if tr, ok := p.Promote(Native, never); ok {
			t.Fatalf("stale native artifact acted on: %+v", tr)
		}
		if p.Engine() != e || p.Tier() != Fabric || sig(e) != want {
			t.Fatal("stale native artifact touched the fabric engine")
		}
		if p.Pending(Native) != nil {
			t.Fatal("stale job left pending")
		}
	})
	t.Run("latched fault", func(t *testing.T) {
		rnd := rand.New(rand.NewSource(5))
		// The native engine's first region-integrity trial faults; the
		// device is not wired to the injector, so placement would succeed.
		r := newRig(t, src, fault.New(fault.Config{Seed: 1, RegionFault: 1, MaxRegionFaults: 1}))
		r.reach(t, rnd, Native)
		p, e := r.p, r.p.Engine()
		if p.Fault() == nil {
			t.Fatal("native engine latched no fault")
		}
		want := sig(e)
		p.Submit(Fabric, 0)
		if tr, ok := p.Promote(Fabric, never); ok {
			t.Fatalf("faulted engine promoted: %+v", tr)
		}
		if p.Engine() != e || p.Tier() != Native || sig(e) != want || r.dev.Used() != 0 {
			t.Fatal("refused promotion touched the faulted engine or the fabric")
		}
		if p.Pending(Fabric) == nil {
			t.Fatal("refused promotion consumed the job")
		}
		// The demotion the fault calls for carries the state down, and the
		// fabric compile then lands on the healthy interpreter.
		if tr := p.Demote(FaultLatched, nil); tr.Err != nil || sig(p.Engine()) != want {
			t.Fatalf("demotion after fault: %+v", tr)
		}
		if tr, ok := p.Promote(Fabric, never); !ok || tr.Err != nil || sig(p.Engine()) != want {
			t.Fatalf("promotion after demotion: ok=%v %+v", ok, tr)
		}
	})
}

// TestPromoteResubmits: a transient programming fault and a shed job
// both leave the engine where it is with the lost compile owed again; a
// permanent failure (no room) leaves it there owing none.
func TestPromoteResubmits(t *testing.T) {
	src := workloads(t)["regexstream"]
	rnd := rand.New(rand.NewSource(9))
	t.Run("transient programming fault", func(t *testing.T) {
		r := newRig(t, src, nil)
		r.dev.SetFaults(fault.New(fault.Config{Seed: 1, RegionFault: 1, MaxRegionFaults: 1}))
		r.reach(t, rnd, Interpreter)
		p, e := r.p, r.p.Engine()
		p.Submit(Fabric, 0)
		tr, ok := p.Promote(Fabric, never)
		if !ok || tr.Cause != TransientFault || !fault.IsTransient(tr.Err) || tr.To != Interpreter {
			t.Fatalf("first programming attempt: ok=%v %+v", ok, tr)
		}
		if p.Engine() != e || p.Pending(Fabric) != nil || !reflect.DeepEqual(tr.Owed, []Tier{Fabric}) {
			t.Fatalf("transient fault must keep the engine and leave the fabric compile owed: %+v", tr)
		}
		// The owner's retry is submitted at never; give it time to land too.
		p.Submit(Fabric, never)
		if tr, ok := p.Promote(Fabric, 2*never); !ok || tr.Err != nil || p.Tier() != Fabric {
			t.Fatalf("retry: ok=%v %+v", ok, tr)
		}
		r.oneDesign(t, true)
	})
	t.Run("shed", func(t *testing.T) {
		opts := toolchain.DefaultOptions()
		opts.MaxQueue = 1
		r := newRigOpts(t, src, nil, opts)
		r.reach(t, rnd, Interpreter)
		p, e := r.p, r.p.Engine()
		p.Submit(Fabric, 0)
		p.Submit(Native, 0) // over the admission bound: shed
		tr, ok := p.Promote(Native, never)
		if !ok || tr.Cause != Shed || !errors.Is(tr.Err, toolchain.ErrOverloaded) || tr.To != Interpreter {
			t.Fatalf("shed job: ok=%v %+v", ok, tr)
		}
		if p.Engine() != e || p.Pending(Native) != nil || !reflect.DeepEqual(tr.Owed, []Tier{Native}) {
			t.Fatalf("a shed must keep the engine and leave the native compile owed: %+v", tr)
		}
		if tr, ok := p.Promote(Fabric, never); !ok || tr.Err != nil {
			t.Fatalf("the admitted fabric compile: ok=%v %+v", ok, tr)
		}
		p.Submit(Native, never) // the owner's resubmission, now admitted
		if tr, ok := p.Promote(Native, 2*never); ok {
			t.Fatalf("a native artifact landing under a fabric engine is stale: %+v", tr)
		}
		r.oneDesign(t, true)
	})
	t.Run("no room", func(t *testing.T) {
		r := newRig(t, src, nil)
		r.dev.Place("squatter", r.dev.Capacity())
		r.reach(t, rnd, Interpreter)
		p := r.p
		p.Submit(Fabric, 0)
		tr, ok := p.Promote(Fabric, never)
		if !ok || tr.Cause != JobLanded || tr.Err == nil || p.Tier() != Interpreter || p.Pending(Fabric) != nil || tr.Owed != nil {
			t.Fatalf("no-fit promotion: ok=%v %+v pending=%v", ok, tr, p.Pending(Fabric))
		}
	})
}
