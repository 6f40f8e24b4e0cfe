package hyper

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"cascade/internal/fault"
	"cascade/internal/fpga"
	"cascade/internal/obsv"
	"cascade/internal/runtime"
	"cascade/internal/toolchain"
	"cascade/internal/vclock"
	"cascade/internal/vgen"
)

// The isolation property: every session hosted by a hypervisor —
// sharing its fabric, its compile pool, and its bitstream-cache storage
// with N-1 neighbours, one of them fault-injected — produces an
// observable output stream, LED and phase trajectory, virtual-time ledger
// and compile history byte-identical to the same program driven through the same chunk
// sequence in a solo single-tenant runtime. Multi-tenancy is allowed to
// cost wall time; it is never allowed to cost virtual time.

const (
	isoTicks    = 400     // the hand-written tenant's run: dozens of quanta
	isoQuantum  = 5       // a generated session is a few dozen ticks: several quanta each
	isoQuota    = 200_000 // LEs a tenant: room for a generated session's 80-bit datapaths
	isoFabric   = 500_000 // the shared device: two regions at a time
	isoClockHz  = 50_000_000
	isoOLTarget = 10 * vclock.Us
)

// isoFaults is the seeded schedule tenant 0 runs under: every compile
// attempt faults transiently until the budget is spent, exercising the
// retry/backoff path.
var isoFaults = fault.Config{Seed: 7, CompileTransient: 1, MaxCompileFaults: 2}

// isoProgram is the hand-written tenant: a counter that prints once.
func isoProgram(i int) string {
	return fmt.Sprintf(`
        reg [7:0] cnt = 0;
        always @(posedge clk.val) begin
            cnt <= cnt + 1;
            if (cnt == 8'd%d) $display("t%d at %%d", cnt);
        end
        assign led.val = cnt;
    `, 37+13*i, i)
}

// tenant returns tenant i's session: generated (internal/vgen), but for
// tenant 0 — the one under the fault schedule — whose hand-written counter
// runs long enough for the retries, the backoff and the late promotion to
// land inside the run.
func tenant(i int) vgen.Script {
	if i > 0 {
		return vgen.Session(uint64(i))
	}
	return vgen.Program("counter", isoProgram(0), isoTicks)
}

func isoToolchainOptions() toolchain.Options {
	tco := toolchain.DefaultOptions()
	tco.Scale, tco.BasePs, tco.LevelPs = 1e9, 1, 1 // near-instant, and timing closes on anything generated
	return tco
}

// pinnedObserver returns an observer with a frozen wall clock, so the
// wall-adaptive paths (open-loop burst sizing) are deterministic and
// identical between a contended session and an uncontended baseline.
func pinnedObserver() *obsv.Observer {
	wall := time.Unix(1_000_000, 0)
	return obsv.New(obsv.Options{WallClock: func() time.Time { return wall }})
}

// observed is everything a tenant can see of its own execution, under the
// names internal/runtime's invisibility table gives the same things.
type observed struct {
	Display string
	Infos   []string
	Leds    []uint64        // after each step of the session
	Phases  []runtime.Phase // likewise
	Time    vclock.Breakdown
	Steps   uint64
	Ticks   uint64
	Compile toolchain.Stats
	AreaLEs int
}

// play drives s on rt — evals through eval, ticks through run, which chunks
// them into quanta — and returns what the tenant observed.
func play(s vgen.Script, rt *runtime.Runtime, view *runtime.BufView, eval func(string) error, run func(uint64)) observed {
	var o observed
	if err := eval(runtime.DefaultPrelude); err != nil {
		panic(err)
	}
	for _, st := range s.Steps {
		if st.Pad >= 0 {
			rt.World().PressPad("main.pad", uint64(st.Pad))
		}
		if src := st.Source(); src != "" {
			if err := eval(src); err != nil {
				panic(fmt.Sprintf("%s: %v", s.Name, err))
			}
		}
		run(uint64(st.Ticks))
		o.Leds, o.Phases = append(o.Leds, rt.World().Led("main.led")), append(o.Phases, rt.Phase())
	}
	st := rt.Stats()
	o.Display, o.Infos, o.Time, o.Steps, o.Ticks, o.Compile, o.AreaLEs = view.Output(), view.Infos(), st.Time, st.Steps, st.Ticks, st.Compile, st.AreaLEs
	return o
}

func sameResult(t *testing.T, label string, got, want observed) {
	t.Helper()
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		if a, b := g.Field(i).Interface(), w.Field(i).Interface(); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: %s differs:\nsession: %+v\nsolo:    %+v", label, g.Type().Field(i).Name, a, b)
		}
	}
}

// tenantOptions are tenant i's runtime options (tenant 0 is the faulty one),
// solo or hosted.
func tenantOptions(i int, view *runtime.BufView) runtime.Options {
	o := runtime.Options{View: view, Observer: pinnedObserver(), Parallelism: 2, OpenLoopTargetPs: isoOLTarget}
	if i == 0 {
		o.Injector = fault.New(isoFaults)
	}
	return o
}

// runSolo executes tenant i's session in a private single-tenant
// runtime — its own device of exactly the session quota, its own
// toolchain — driven through the identical quantum chunking the
// hypervisor uses (burst partitioning follows chunk boundaries, so the
// baseline must see the same chunks to bill the same virtual time).
func runSolo(i int) observed {
	dev := fpga.NewDevice(isoQuota, isoClockHz)
	tc := toolchain.New(dev, isoToolchainOptions())
	view := &runtime.BufView{Quiet: true}
	opts := tenantOptions(i, view)
	opts.Device, opts.Toolchain = dev, tc
	rt := runtime.New(opts)
	return play(tenant(i), rt, view, rt.Eval, func(n uint64) {
		for rem := n; rem > 0 && !rt.Finished(); {
			chunk := min(uint64(isoQuantum), rem)
			rt.RunTicks(chunk)
			rem -= chunk
		}
	})
}

// runSessions executes all N tenants concurrently on one hypervisor and
// returns each tenant's observations. A non-nil farm installs a compile
// farm on the shared toolchain through the first tenant's runtime
// options (installation is idempotent; later tenants find it in place).
// With crash, tenant 0 closes its session three quanta in, mid-run for the
// others.
func runSessions(t *testing.T, n, capacityLEs int, farm *toolchain.FarmOptions, crash bool) []observed {
	t.Helper()
	shared := fpga.NewDevice(capacityLEs, isoClockHz)
	hv, err := New(
		WithDevice(shared),
		WithToolchainOptions(isoToolchainOptions()),
		WithQuantum(isoQuantum),
		WithDefaultQuota(isoQuota),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer hv.Close()

	views := make([]*runtime.BufView, n)
	sessions := make([]*Session, n)
	for i := 0; i < n; i++ {
		views[i] = &runtime.BufView{Quiet: true}
		opts := tenantOptions(i, views[i])
		opts.Farm = farm
		sessions[i], err = hv.NewSession(WithID(fmt.Sprintf("t%d", i)), WithQuota(isoQuota), WithCompileShare(1), WithRuntime(opts))
		if err != nil {
			t.Fatal(err)
		}
	}

	out := make([]observed, n)
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *Session) {
			defer wg.Done()
			script := tenant(i)
			if crash && i == 0 {
				script.Steps[0].Ticks = 3 * isoQuantum
			}
			out[i] = play(script, s.Runtime(), views[i], s.Eval, s.RunTicks)
			if crash && i == 0 {
				if err := s.Close(); err != nil {
					t.Errorf("crasher close: %v", err)
				}
			}
		}(i, s)
	}
	wg.Wait()
	return out
}

// TestIsolationSpatial: two tenants whose regions fit on the shared
// fabric simultaneously (two regions on a fabric of two and a half) run
// concurrently; each must match its solo baseline byte for byte. Tenant 0 runs under a seeded
// fault schedule — its retries must not leak into tenant 1 either.
func TestIsolationSpatial(t *testing.T) {
	got := runSessions(t, 2, isoFabric, nil, false)
	for i, g := range got {
		sameResult(t, fmt.Sprintf("tenant %d (N=2 spatial)", i), g, runSolo(i))
	}
}

// TestIsolationTimeMultiplexed: four tenants over a fabric that holds
// only two regions at a time (four regions' worth of tenants on the same
// fabric), forcing residency eviction and re-admission between quanta.
// Time-multiplexing must cost wall time only: every tenant still matches
// its solo baseline exactly.
func TestIsolationTimeMultiplexed(t *testing.T) {
	got := runSessions(t, 4, isoFabric, nil, false)
	for i, g := range got {
		sameResult(t, fmt.Sprintf("tenant %d (N=4 time-mux)", i), g, runSolo(i))
	}
}

// TestIsolationAcrossClose: a neighbour crashing out mid-run (Close
// between quanta) must be invisible to the survivor.
func TestIsolationAcrossClose(t *testing.T) {
	got := runSessions(t, 3, isoFabric, nil, true)
	for i, g := range got[1:] {
		sameResult(t, fmt.Sprintf("survivor %d (neighbour crashed mid-run)", i+1), g, runSolo(i+1))
	}
}

// TestIsolationWithCompileFarm composes invariant 15 with the isolation
// property: tenants of a hypervisor whose shared toolchain shards every
// fabric compile across an in-process farm must still match their solo
// local-backend baselines byte for byte — fair-share admission survives
// the backend swap, and the farm changes where flows run, never what a
// tenant observes. Four tenants over a two-region fabric keep the
// time-multiplexing pressure on while the farm routes.
func TestIsolationWithCompileFarm(t *testing.T) {
	got := runSessions(t, 4, isoFabric, &toolchain.FarmOptions{Workers: 3}, false)
	for i, g := range got {
		sameResult(t, fmt.Sprintf("tenant %d (N=4 farm)", i), g, runSolo(i))
	}
}
