package runtime

import (
	"fmt"
	"sync"
	"testing"

	"cascade/internal/fault"
	"cascade/internal/toolchain"
	"cascade/internal/vgen"
)

// Invariant 12, isolation, on daemon sessions: every tenant of one
// cascade-engined daemon — sharing its fabric, its compile pool and its
// bitstream-cache storage with N-1 neighbours, one of them under a seeded
// transport-fault schedule — observes what it observes alone on a daemon
// of its own, byte for byte: output, LEDs and phases per tick, final state
// and snapshot, and the virtual-time ledger. Sharing a daemon may cost wall
// time; it never costs virtual time.

// isoTenant is tenant i: a generated session on two lanes in a daemon
// session of its own name, tenant 0 with seeded frame drops on its
// connection (capped below the retry budget, as multitenant_smoke.sh's
// -fault-net tenant).
func isoTenant(i int) (arm, schedule, vgen.Script) {
	a := arm{feats: Features{DisableInline: true}, lanes: 2, hosted: true, daemonJIT: true, session: true, tenant: fmt.Sprintf("t%d", i)}
	var sch schedule
	if i == 0 {
		sch.faults = fault.Config{Seed: 42, NetDrop: 0.2, MaxNetFaults: 2}
	}
	return a, sch, vgen.Session(uint64(i))
}

// isolated runs tenants 0..n-1 on one daemon address, whose fabric holds
// every tenant's region at once: first each alone on a fresh host (local
// backend), then all at once on one host, its compiles sharded over farm
// when farm is set. The address is the drop schedule's site, so both see
// the same drops. With crash, tenant 0 runs its first step only when
// shared and closes its session while the others are mid-run. Every
// tenant from its first survivor on must observe the same either way.
func isolated(t *testing.T, n int, farm *toolchain.FarmOptions, crash bool) {
	first := 0
	if crash {
		first = 1
	}
	d := startTestDaemon(&testDaemon{t: t, jit: true, fabric: n * sessionQuota})
	solo := make([]observed, n)
	for i := first; i < n; i++ {
		d.kill()
		d.restart()
		a, sch, s := isoTenant(i)
		var err error
		if solo[i], err = observeOn(t, d, a, sch, s); err != nil {
			t.Fatalf("tenant %d alone: %v", i, err)
		}
	}
	d.kill()
	d.farm = farm
	d.restart()
	shared, errs := make([]observed, n), make([]error, n)
	var wg sync.WaitGroup
	for i := range shared {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, sch, s := isoTenant(i)
			if crash && i == 0 {
				s.Steps = s.Steps[:1]
			}
			shared[i], errs[i] = observeOn(t, d, a, sch, s)
		}()
	}
	wg.Wait()
	for i := range shared {
		if errs[i] != nil {
			t.Fatalf("tenant %d shared: %v", i, errs[i])
		}
		if i < first {
			continue
		}
		if diff := solo[i].differ(shared[i], exactly); diff != "" {
			t.Errorf("tenant %d: shared is not alone: %s", i, diff)
		}
		// The daemon promoted the tenant's engines onto its fabric, and the
		// faulty tenant's drops happened: a comparison of runs that stayed
		// in software, undisturbed, shows little.
		if swapAt(shared[i]) == len(shared[i].Phases) {
			t.Errorf("tenant %d never reached hardware", i)
		}
		if drops := shared[i].Faults.Net; (i == 0) != (drops > 0) {
			t.Errorf("tenant %d: %d frames dropped", i, drops)
		}
	}
	if n := d.live().Sessions(); n != 0 {
		t.Errorf("%d sessions left on the shared daemon", n)
	}
	if fs, ok := d.tc.FarmStats(); farm != nil && (!ok || fs.Routed == 0) {
		t.Errorf("the farm routed nothing: %+v", fs)
	}
}

// TestIsolationSpatial: 2 and 4 tenants whose regions fit on the
// daemon's fabric at once run concurrently, tenant 0 under seeded frame
// drops; each matches its run alone byte for byte.
func TestIsolationSpatial(t *testing.T) {
	for _, n := range []int{2, 4} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) { isolated(t, n, nil, false) })
	}
}

// TestIsolationAcrossClose: a neighbour closing its session mid-run is
// invisible to the others.
func TestIsolationAcrossClose(t *testing.T) { isolated(t, 3, nil, true) }

// TestIsolationWithCompileFarm composes invariant 15 with 12: the daemon
// sharding every tenant's fabric compiles over a farm is invisible too,
// and each tenant still matches its run alone on the local backend.
func TestIsolationWithCompileFarm(t *testing.T) {
	isolated(t, 4, &toolchain.FarmOptions{Workers: 3}, false)
}
