// Package chaos builds deterministic, bounded fault schedules that
// compose every failure surface the runtime claims to survive: flaky
// compiles, dropped transport frames, corrupted fabric regions (all via
// internal/fault), daemon kill/restart cycles, and compile-queue
// overload. A schedule is a pure function of its Config — same seed,
// same plan — so a chaos run is replayable and, critically, comparable:
// the self-healing invariant (ROADMAP invariant 14) says a run under
// any bounded chaos schedule must produce byte-identical output to the
// fault-free run, and that is only checkable if "the schedule" is a
// value, not a coin flip per execution.
//
// The package plans; it does not execute. Injected faults are carried
// by a fault.Injector built from the schedule, and daemon outages are
// step-indexed instructions the test harness (or a driver loop) applies
// at step boundaries — kills land between steps, where the runtime's
// committed-state snapshots live, mirroring how a SIGKILL lands between
// two of the daemon's serving frames.
package chaos

import (
	"fmt"
	"strings"

	"cascade/internal/fault"
)

// Config bounds one chaos schedule. The zero value schedules nothing.
type Config struct {
	// Seed selects the schedule. Two configs with the same fields
	// materialize identical schedules.
	Seed uint64

	// Steps is the horizon: every scheduled event lands strictly inside
	// [1, Steps). Default 128.
	Steps uint64

	// DaemonOutages is how many kill/restart cycles to plan. Each
	// outage kills the daemon at a step boundary and restarts it
	// between MinDownSteps and MaxDownSteps steps later; outages never
	// overlap. Defaults: MinDownSteps 1, MaxDownSteps 4.
	DaemonOutages int
	MinDownSteps  uint64
	MaxDownSteps  uint64

	// Fault configures the injector surfaces driven alongside the
	// outages (compile faults, net drops, region faults). Its own caps
	// keep it bounded; a zero Fault.Seed adopts Seed so one number
	// replays the whole composition.
	Fault fault.Config
}

func (c *Config) fill() {
	if c.Steps == 0 {
		c.Steps = 128
	}
	if c.MinDownSteps == 0 {
		c.MinDownSteps = 1
	}
	if c.MaxDownSteps < c.MinDownSteps {
		c.MaxDownSteps = c.MinDownSteps + 3
	}
	if c.Fault.Seed == 0 {
		c.Fault.Seed = c.Seed
	}
}

// Outage is one planned daemon kill/restart cycle. The daemon is
// killed after step KillAtStep completes and restarted after step
// RestartAtStep completes (KillAtStep < RestartAtStep).
type Outage struct {
	KillAtStep    uint64
	RestartAtStep uint64
}

// Schedule is a materialized chaos plan: what Config.Schedule derives,
// frozen into explicit step-indexed events.
type Schedule struct {
	Seed    uint64
	Steps   uint64
	Outages []Outage // ordered, non-overlapping
	Fault   fault.Config
}

// Schedule materializes the plan. It is deterministic: the same Config
// always yields the same Schedule, independent of call count, host, or
// goroutine interleaving (splitmix64 over the seed, no global state).
func (c Config) Schedule() Schedule {
	c.fill()
	s := Schedule{Seed: c.Seed, Steps: c.Steps, Fault: c.Fault}
	if c.DaemonOutages <= 0 {
		return s
	}
	r := rng{fault.SplitMix(c.Seed ^ 0xc4a5cade)} // offset so Fault and outages decorrelate
	// One outage per equal window of the horizon: non-overlap by
	// construction, and kills spread across the run instead of
	// clustering wherever the raw draws land.
	window := c.Steps / uint64(c.DaemonOutages)
	for i := 0; i < c.DaemonOutages; i++ {
		start := uint64(i) * window
		down := c.MinDownSteps + r.intn(c.MaxDownSteps-c.MinDownSteps+1)
		if down+2 > window {
			// Window too small for this outage: shrink the downtime so
			// the restart still lands inside it (bounded beats faithful).
			if window <= 2 {
				continue
			}
			down = window - 2
		}
		kill := start + 1 + r.intn(window-down-1)
		s.Outages = append(s.Outages, Outage{
			KillAtStep:    kill,
			RestartAtStep: kill + down,
		})
	}
	return s
}

// Injector builds the schedule's fault injector. Each call returns a
// fresh injector at trial zero, so a comparison harness can give the
// serial and parallel arms identical fault timelines.
func (s Schedule) Injector() *fault.Injector {
	return fault.New(s.Fault)
}

// String renders the plan compactly for logs and test failures.
func (s Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos[seed=%d steps=%d", s.Seed, s.Steps)
	for _, o := range s.Outages {
		fmt.Fprintf(&b, " kill@%d..%d", o.KillAtStep, o.RestartAtStep)
	}
	b.WriteString("]")
	return b.String()
}

// rng draws from the tree's one splitmix64 stream (fault.SplitMix), so
// the schedule never depends on math/rand's version-varying streams.
type rng struct{ fault.SplitMix }

// intn returns a draw in [0, n).
func (r *rng) intn(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return r.Next() % n
}
