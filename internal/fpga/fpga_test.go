package fpga

import (
	"fmt"
	"testing"
)

func TestCycloneVParameters(t *testing.T) {
	d := NewCycloneV()
	if d.Capacity() != 110_000 {
		t.Fatalf("capacity %d", d.Capacity())
	}
	if d.ClockHz() != 50_000_000 {
		t.Fatalf("clock %d", d.ClockHz())
	}
	if d.CyclePs() != 20_000 {
		t.Fatalf("period %d ps", d.CyclePs())
	}
}

func TestPlacementAccounting(t *testing.T) {
	d := NewDevice(100, 1_000_000)
	if err := d.Place("a", 60); err != nil {
		t.Fatal(err)
	}
	if err := d.Place("b", 50); err == nil {
		t.Fatal("overcommit accepted")
	}
	if d.Used() != 60 {
		t.Fatalf("used=%d", d.Used())
	}
	// Re-placing a region replaces its reservation.
	if err := d.Place("a", 30); err != nil {
		t.Fatal(err)
	}
	if err := d.Place("b", 50); err != nil {
		t.Fatalf("room freed by re-place: %v", err)
	}
	d.Release("a")
	if d.Used() != 50 {
		t.Fatalf("used after release=%d", d.Used())
	}
	d.Release("missing") // no-op
	if d.Used() != 50 {
		t.Fatal("releasing unknown region changed accounting")
	}
}

func TestConcurrentAccess(t *testing.T) {
	d := NewDevice(1_000_000, 1_000_000)
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			name := fmt.Sprintf("r%d", i)
			for j := 0; j < 1000; j++ {
				if err := d.Place(name, 1+j%100); err != nil {
					t.Error(err)
					return
				}
				d.Release(name)
			}
			if err := d.Place(name, 100); err != nil {
				t.Error(err)
			}
		}(i)
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if d.Used() != 800 {
		t.Fatalf("racy placement accounting: used=%d, want 800", d.Used())
	}
}
