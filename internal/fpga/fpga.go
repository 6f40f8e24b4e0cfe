// Package fpga simulates the reconfigurable device Cascade-Go's hardware
// engines execute on. The paper's platform is an Intel Cyclone V SoC:
// 110K logic elements of fabric clocked at 50 MHz, reachable from the
// host over a memory-mapped Avalon/AXI bus. We reproduce the properties
// the system design depends on — finite capacity, a fixed fabric clock,
// per-transaction bus cost, and reprogramming — while the "fabric"
// executes compiled netlist machines (internal/netlist).
package fpga

import (
	"fmt"
	"sync"

	"cascade/internal/fault"
)

// Device models one FPGA.
type Device struct {
	mu sync.Mutex

	capacity int
	used     int
	regions  map[string]int // placed region name -> logic elements

	clockHz uint64

	// faults injects deterministic bus and region faults into the
	// engines executing on this device (nil: fault-free).
	faults *fault.Injector
}

// NewCycloneV returns a device with the paper's Cyclone V parameters:
// 110K logic elements at 50 MHz.
func NewCycloneV() *Device { return NewDevice(110_000, 50_000_000) }

// NewDevice returns a device with the given capacity (logic elements)
// and fabric clock.
func NewDevice(capacityLEs int, clockHz uint64) *Device {
	return &Device{capacity: capacityLEs, clockHz: clockHz, regions: map[string]int{}}
}

// Capacity returns the device's total logic elements.
func (d *Device) Capacity() int { return d.capacity }

// ClockHz returns the fabric clock frequency.
func (d *Device) ClockHz() uint64 { return d.clockHz }

// CyclePs returns the fabric clock period in picoseconds.
func (d *Device) CyclePs() uint64 { return 1_000_000_000_000 / d.clockHz }

// Used returns the logic elements currently placed.
func (d *Device) Used() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.used
}

// SetFaults installs a fault injector; placements and the engines
// executing on this device consult it for bus and region faults.
func (d *Device) SetFaults(in *fault.Injector) {
	d.mu.Lock()
	d.faults = in
	d.mu.Unlock()
}

// Faults returns the installed injector (nil when fault-free).
func (d *Device) Faults() *fault.Injector {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.faults
}

// Place reserves fabric for a named region; it fails when the design
// does not fit (the place-and-route "no fit" outcome) or when the fault
// schedule loses the bitstream during programming. Re-placing an
// existing region swaps the reservation atomically: a failed re-place
// leaves the old reservation — and the engine running in it — intact,
// so repeated failed placements cannot leak capacity.
func (d *Device) Place(name string, les int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	old, had := d.regions[name]
	avail := d.used
	if had {
		avail -= old
	}
	if avail+les > d.capacity {
		return fmt.Errorf("fpga: design %s (%d LEs) does not fit: %d of %d LEs in use",
			name, les, avail, d.capacity)
	}
	if err := d.faults.Region(name); err != nil {
		return fmt.Errorf("fpga: programming %s failed: %w", name, err)
	}
	if had {
		d.used -= old
	}
	d.regions[name] = les
	d.used += les
	return nil
}

// Release frees a named region (engine torn down or moved to software).
func (d *Device) Release(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if les, ok := d.regions[name]; ok {
		d.used -= les
		delete(d.regions, name)
	}
}
