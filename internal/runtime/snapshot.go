package runtime

import (
	"bufio"
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"cascade/internal/engine"
	"cascade/internal/lifecycle"
	"cascade/internal/persist"
	"cascade/internal/sim"
	"cascade/internal/stdlib"
	"cascade/internal/vclock"
)

// Snapshot is a portable capture of a running program: its source, the
// state of every subprogram (including standard-library components),
// the virtual-time accounting, and the board's host-driven input pins.
// The paper's future-work section (§9) proposes using Cascade's ability
// to move programs between hardware and software to bootstrap virtual
// machine migration; a Snapshot taken on one runtime Restores onto
// another — a different device, a different toolchain, mid-computation —
// and execution continues exactly where it left off (in software first,
// with the new target's JIT climbing back to hardware). Checkpoints on
// disk are snapshots too: internal/persist frames them with per-section
// checksums so a torn write is detected, never half-restored.
type Snapshot struct {
	Source string                // the eval'd program (reparseable)
	States map[string]*sim.State // per-subprogram state, by instance path
	Steps  uint64                // scheduler time ($time continuity)
	VTime  vclock.Breakdown      // virtual-clock accounting at capture
	Inputs []stdlib.InputState   // host-driven board inputs (pads, resets, GPIO)
}

// Snapshot captures the runtime's program and state. Like every state
// operation it happens between time steps; taking the lock makes it
// safe to call from a monitoring goroutine while the controller runs.
func (r *Runtime) Snapshot() *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshotLocked()
}

// snapshotLocked is Snapshot's body; callers hold r.mu.
func (r *Runtime) snapshotLocked() *Snapshot {
	snap := &Snapshot{
		Source: r.ProgramSource(),
		States: r.captureStates(),
		Steps:  r.steps,
		VTime:  r.vclk.Breakdown(),
		Inputs: r.opts.World.InputStates(),
	}
	// Standard-library components carry state too (FIFO contents, LED
	// values, the clock phase).
	for path, e := range r.stdEngines {
		snap.States[path] = e.GetState()
	}
	return snap
}

// Restore installs a snapshot onto this runtime, replacing whatever
// program it was running (a fresh runtime works too). The program source
// is re-integrated, every subprogram's state is injected — install seeds
// each standard-library engine it creates from the snapshot too — and the
// JIT starts over on the new target's engines.
//
// Restore validates the whole snapshot — the front end over its source
// (integrate), its input kinds, the daemon connection — before touching
// any runtime state, and rolls the runtime back to its fresh state if
// the final engine build fails: a corrupt or rejected snapshot never
// leaves state half-installed, so the caller can Restore another
// snapshot (or Eval a program) on the same runtime.
func (r *Runtime) Restore(snap *Snapshot) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, err := integrate(emptyVersion(), snap.Source, !r.opts.Features.DisableInline)
	if err != nil {
		return fmt.Errorf("runtime: snapshot source: %w", err)
	}
	// Input kinds are validated before anything mutates, so the apply
	// loop below cannot fail partway.
	for _, in := range snap.Inputs {
		switch in.Kind {
		case stdlib.InputPad, stdlib.InputReset, stdlib.InputGPIO:
		default:
			return fmt.Errorf("runtime: snapshot input kind %q", in.Kind)
		}
	}
	if err := r.connectRemote(); err != nil {
		return err
	}

	// Validation complete: commit. A used runtime (the REPL's :load on a
	// live session) is torn down only now — a snapshot that fails any
	// check above leaves the running program untouched.
	r.resetFreshLocked()
	// Board inputs land first so stdlib engines sample the snapshot's
	// values on their first EndStep.
	for _, in := range snap.Inputs {
		r.opts.World.ApplyInput(in.Kind, in.Path, in.Value)
	}
	r.steps = snap.Steps
	r.ticks = snap.Steps / 2
	r.vclk.Restore(snap.VTime)
	if err := r.install(context.Background(), v, snap.States); err != nil {
		// A failed engine build must not leave the runtime half-restored:
		// roll back to the fresh state so it remains usable.
		r.resetFreshLocked()
		return fmt.Errorf("runtime: restore failed: %w", err)
	}
	return nil
}

// resetFreshLocked returns the runtime to its just-constructed state:
// engines torn down, background compilations cancelled, program and
// counters cleared. Callers hold r.mu.
func (r *Runtime) resetFreshLocked() {
	r.teardown()
	r.stdEngines = map[string]engine.Engine{}
	r.ver = emptyVersion()
	r.setPhase(PhaseEmpty)
	r.steps, r.ticks = 0, 0
	r.finished = false
	r.displayQ = nil
	r.constructDisplays = 0
	r.vclk = vclock.Clock{}
	clear(r.moves[lifecycle.FaultLatched][:]) // the daemon connection, and its failovers, outlive the program
	r.olIters, r.olWallCap = 64, 1<<14
}

// Snapshot container format. Version 2 is a checksummed
// internal/persist container (magic + format version + CRC per
// section): a "meta" section with the scalar counters, a "world"
// section with the board's input pins, one "state:<path>" section per
// subprogram, and a trailing "source" section.
const (
	snapshotMagic   = "cascade-snapshot"
	snapshotVersion = 2
)

// EncodeSnapshot renders a snapshot as a self-contained, checksummed
// blob (persist container v2): a torn or bit-flipped file is detected
// by DecodeSnapshot instead of half-restoring.
func EncodeSnapshot(snap *Snapshot) string {
	return string(persist.EncodeContainer(snapshotMagic, snapshotVersion, snapshotSections(snap)))
}

// snapshotSections renders the container sections shared by
// EncodeSnapshot and the checkpoint writer (which appends its own
// journal-position section).
func snapshotSections(snap *Snapshot) []persist.Section {
	meta := appendField(nil, "steps", '=', snap.Steps)
	meta = appendField(meta, "vnow", '=', snap.VTime.NowPs)
	meta = appendField(meta, "vcompute", '=', snap.VTime.ComputePs)
	meta = appendField(meta, "vcomm", '=', snap.VTime.CommPs)
	meta = appendField(meta, "voverhead", '=', snap.VTime.OverheadPs)
	meta = appendField(meta, "vmessages", '=', snap.VTime.Messages)
	secs := []persist.Section{{Name: "meta", Data: meta}}

	var world []byte
	for _, in := range snap.Inputs {
		world = appendField(world, in.Kind+" "+in.Path, ' ', in.Value)
	}
	secs = append(secs, persist.Section{Name: "world", Data: world})

	var paths []string
	for p := range snap.States {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		secs = append(secs, persist.Section{
			Name: "state:" + p,
			Data: snap.States[p].AppendText(nil),
		})
	}
	secs = append(secs, persist.Section{Name: "source", Data: []byte(snap.Source)})
	return secs
}

// appendField appends the section line "<key><sep><n>\n".
func appendField(dst []byte, key string, sep byte, n uint64) []byte {
	return append(strconv.AppendUint(append(append(dst, key...), sep), n, 10), '\n')
}

// DecodeSnapshot parses EncodeSnapshot's format. Arbitrary or corrupted
// bytes are rejected with an error, never half-decoded: every section
// must verify against its checksum before any of it is interpreted.
func DecodeSnapshot(text string) (*Snapshot, error) {
	_, secs, err := persist.DecodeContainer(snapshotMagic, []byte(text))
	if err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	snap, _, err := snapshotFromSections(secs)
	return snap, err
}

// snapshotFromSections interprets decoded container sections; unknown
// sections are returned to the caller (the checkpoint loader reads its
// journal-position section from them).
func snapshotFromSections(secs []persist.Section) (*Snapshot, []persist.Section, error) {
	snap := &Snapshot{States: map[string]*sim.State{}}
	var extra []persist.Section
	seen := map[string]bool{}
	for _, s := range secs {
		switch {
		case s.Name == "meta":
			if err := decodeSnapshotMeta(snap, s.Data); err != nil {
				return nil, nil, err
			}
		case s.Name == "world":
			if err := decodeSnapshotWorld(snap, s.Data); err != nil {
				return nil, nil, err
			}
		case s.Name == "source":
			snap.Source = string(s.Data)
		case strings.HasPrefix(s.Name, "state:"):
			path := strings.TrimPrefix(s.Name, "state:")
			if path == "" {
				return nil, nil, fmt.Errorf("runtime: snapshot state section with empty path")
			}
			st, err := sim.DecodeStateText(string(s.Data))
			if err != nil {
				return nil, nil, fmt.Errorf("runtime: snapshot state %s: %w", path, err)
			}
			snap.States[path] = st
		default:
			extra = append(extra, s)
			continue
		}
		if seen[s.Name] {
			return nil, nil, fmt.Errorf("runtime: snapshot section %s duplicated", s.Name)
		}
		seen[s.Name] = true
	}
	if !seen["meta"] || !seen["source"] {
		return nil, nil, fmt.Errorf("runtime: snapshot missing meta or source section")
	}
	return snap, extra, nil
}

func decodeSnapshotMeta(snap *Snapshot, data []byte) error {
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return fmt.Errorf("runtime: snapshot meta line %.40q", line)
		}
		var n uint64
		if _, err := fmt.Sscanf(val, "%d", &n); err != nil {
			return fmt.Errorf("runtime: snapshot meta %s: %w", key, err)
		}
		switch key {
		case "steps":
			snap.Steps = n
		case "vnow":
			snap.VTime.NowPs = n
		case "vcompute":
			snap.VTime.ComputePs = n
		case "vcomm":
			snap.VTime.CommPs = n
		case "voverhead":
			snap.VTime.OverheadPs = n
		case "vmessages":
			snap.VTime.Messages = n
		default:
			// Unknown keys are tolerated: later format revisions may add
			// counters without breaking older readers.
		}
	}
	return sc.Err()
}

func decodeSnapshotWorld(snap *Snapshot, data []byte) error {
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var in stdlib.InputState
		if _, err := fmt.Sscanf(line, "%s %s %d", &in.Kind, &in.Path, &in.Value); err != nil {
			return fmt.Errorf("runtime: snapshot world line %.40q: %w", line, err)
		}
		switch in.Kind {
		case stdlib.InputPad, stdlib.InputReset, stdlib.InputGPIO:
		default:
			return fmt.Errorf("runtime: snapshot world kind %q", in.Kind)
		}
		snap.Inputs = append(snap.Inputs, in)
	}
	return sc.Err()
}
