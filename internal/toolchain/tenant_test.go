package toolchain

import (
	"context"
	"testing"

	"cascade/internal/fpga"
)

// TestFairShareRegistration pins RegisterTenant's contract: a tenant's
// fair share bounds its compile slots and its device is what its flows
// fit against; re-registering with the same share keeps the slots jobs
// in flight hold, and keeps the tenant's counters; the default tenant
// cannot be re-configured or removed; an unregistered tenant reads zero.
func TestFairShareRegistration(t *testing.T) {
	tc := New(fpga.NewCycloneV(), DefaultOptions())
	small := fpga.NewDevice(100, tc.Device().ClockHz())
	rec := func(id string) tenant { return tc.tenant(id).snapshot() }
	tc.RegisterTenant("a", 2, small)
	tc.RegisterTenant("b", 0, nil)
	if a := rec("a"); cap(a.sem) != 2 || a.dev != small {
		t.Errorf("tenant a: %d slots on a %d-LE device, want 2 on its 100-LE partition", cap(a.sem), a.dev.Capacity())
	}
	if b := rec("b"); b.sem != nil || b.dev != tc.Device() {
		t.Errorf("tenant b registered without a share or device: slots %v, device %p, want none and the toolchain's", b.sem, b.dev)
	}
	sem := rec("a").sem
	tc.RegisterTenant("a", 2, small)
	if rec("a").sem != sem {
		t.Error("re-registering with the same share replaced the slots its jobs in flight hold")
	}

	ctx := context.Background()
	if res := tc.SubmitDesign(ctx, "a", NewDesign(flatFor(t, bigDatapath)), false, false, 0).Result(); res.Err == nil {
		t.Errorf("a %d-LE design fitted tenant a's 100-LE partition", res.AreaLEs)
	}
	if res := tc.SubmitDesign(ctx, "b", NewDesign(flatFor(t, bigDatapath)), false, false, 0).Result(); res.Err != nil {
		t.Errorf("tenant b, on the whole fabric: %v", res.Err)
	}
	tc.RegisterTenant("a", 1, nil)
	if a := rec("a"); cap(a.sem) != 1 || a.dev != tc.Device() {
		t.Errorf("re-registered tenant a: %d slots, device %p, want 1 and the toolchain's", cap(a.sem), a.dev)
	}
	if got := tc.StatsFor("a").Submitted; got != 1 {
		t.Errorf("re-registering lost tenant a's counters: %d submissions, want 1", got)
	}

	tc.RegisterTenant("", 3, small)
	tc.UnregisterTenant("")
	if d := rec(""); d.sem != nil || d.dev != tc.Device() {
		t.Errorf("the default tenant was re-configured: slots %v, device %p", d.sem, d.dev)
	}
	tc.Submit(ctx, flatFor(t, smallCounter), false, 0).Wait()
	if got := tc.Stats().Submitted; got != 1 {
		t.Errorf("the default tenant counts %d submissions, want 1", got)
	}
	tc.UnregisterTenant("a")
	if st := tc.StatsFor("a"); st != (Stats{}) {
		t.Errorf("an unregistered tenant reads %+v, want zero", st)
	}
}
