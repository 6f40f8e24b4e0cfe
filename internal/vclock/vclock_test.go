package vclock

import "testing"

func TestUnits(t *testing.T) {
	if S != 1_000_000_000_000 {
		t.Fatalf("S=%d", S)
	}
	if Ms != 1_000_000_000 || Us != 1_000_000 || Ns != 1_000 {
		t.Fatal("unit ladder wrong")
	}
}

func TestDefaultModelShape(t *testing.T) {
	m := DefaultModel()
	if m.HWCyclePs != 20*Ns {
		t.Fatalf("fabric period %d", m.HWCyclePs)
	}
	// The design depends on the clock-domain gap: software events are
	// orders slower than fabric cycles, and messages dwarf both.
	if m.SWEvalOpPs <= m.HWCyclePs*10 {
		t.Fatal("software ops should be much slower than fabric cycles")
	}
	if m.MsgPs <= m.HWCyclePs*10 {
		t.Fatal("messages should dwarf fabric cycles (the open-loop motivation)")
	}
	if m.HWCyclesPerIter < 2 || m.HWCyclesPerIter > 6 {
		t.Fatalf("wrapper cycles per tick %d out of the ~3x band", m.HWCyclesPerIter)
	}
}

func TestClockAttribution(t *testing.T) {
	var c Clock
	m := DefaultModel()
	c.AdvanceCompute(100)
	c.AdvanceComm(2, &m)
	c.AdvanceOverhead(50)
	c.AdvanceRaw(7)
	want := 100 + 2*m.MsgPs + 50 + 7
	if c.Now() != want {
		t.Fatalf("now=%d want %d", c.Now(), want)
	}
	if c.ComputePs != 100 || c.OverheadPs != 50 || c.CommPs != 2*m.MsgPs || c.Messages != 2 {
		t.Fatalf("attribution wrong: %+v", c)
	}
}
