package runtime

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"cascade/internal/engine"
	"cascade/internal/ir"
	"cascade/internal/lifecycle"
	"cascade/internal/persist"
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
	Source string              // the eval'd program (reparseable)
	States map[string][]uint64 // per-subprogram state image, by instance path (its flat layout)
	Steps  uint64              // scheduler time ($time continuity)
	VTime  vclock.Breakdown    // virtual-clock accounting at capture
	Inputs []stdlib.InputState // host-driven board inputs (pads, resets, GPIO)
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
	// By flat path: the merged root's state split. Standard-library
	// components carry state too (FIFO contents, LED values, the clock).
	if merged := snap.States[ir.RootPath]; r.ver.inlined && merged != nil {
		snap.States = r.ver.split(merged)
	}
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
// (integrate), every state image against the layout of the subprogram
// it names (an empty one fits any), its input kinds, the daemon connection — before touching
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
	// An empty image is no state — what a hosted engine's failed read
	// leaves — and its engine starts from its initial state (seed).
	for path, img := range snap.States {
		if l := v.layoutOf(path); l == nil || len(img) != 0 && len(img) != l.Len() {
			return fmt.Errorf("runtime: snapshot state %s does not fit the program's layout", path)
		}
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
	if err := r.install(context.Background(), v, snap.States, v); err != nil {
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

// Snapshot container format. Version 3 is a checksummed
// internal/persist container (magic + format version + CRC per
// section): a "meta" section with the scalar counters, a "world"
// section with the board's input pins, one "state:<path>" section per
// subprogram holding its state image, eight little-endian bytes a word
// (version 2 held named values), and a trailing "source" section.
const (
	snapshotMagic   = "cascade-snapshot"
	snapshotVersion = 3
)

// EncodeSnapshot renders a snapshot as a self-contained, checksummed
// blob (persist container v3): a torn or bit-flipped file is detected
// by DecodeSnapshot instead of half-restoring.
func EncodeSnapshot(snap *Snapshot) string {
	source := persist.Section{Name: "source", Data: []byte(snap.Source)}
	return string(persist.EncodeContainer(snapshotMagic, snapshotVersion, snapshotSections(snap, source)))
}

// snapshotSections renders the container sections shared by
// EncodeSnapshot and the checkpoint writer, source being snap.Source's
// (the checkpoint writer passes its version's, made once, and appends
// its own journal-position section).
func snapshotSections(snap *Snapshot, source persist.Section) []persist.Section {
	meta := appendField(make([]byte, 0, 192), "steps", '=', snap.Steps)
	meta = appendField(meta, "vnow", '=', snap.VTime.NowPs)
	meta = appendField(meta, "vcompute", '=', snap.VTime.ComputePs)
	meta = appendField(meta, "vcomm", '=', snap.VTime.CommPs)
	meta = appendField(meta, "voverhead", '=', snap.VTime.OverheadPs)
	meta = appendField(meta, "vmessages", '=', snap.VTime.Messages)
	secs := make([]persist.Section, 2, len(snap.States)+4) // and the caller's journal section
	secs[0] = persist.Section{Name: "meta", Data: meta}

	var world []byte
	for _, in := range snap.Inputs {
		world = appendField(world, in.Kind+" "+in.Path, ' ', in.Value)
	}
	secs[1] = persist.Section{Name: "world", Data: world}

	paths, words := make([]string, 0, len(snap.States)), 0
	for p, img := range snap.States {
		paths = append(paths, p)
		words += len(img)
	}
	sort.Strings(paths)
	data := make([]byte, 0, 8*words) // every image, one after another
	for _, p := range paths {
		from := len(data)
		for _, w := range snap.States[p] {
			data = binary.LittleEndian.AppendUint64(data, w)
		}
		secs = append(secs, persist.Section{Name: "state:" + p, Data: data[from:]})
	}
	return append(secs, source)
}

// appendField appends the section line "<key><sep><n>\n".
func appendField(dst []byte, key string, sep byte, n uint64) []byte {
	return append(strconv.AppendUint(append(append(dst, key...), sep), n, 10), '\n')
}

// DecodeSnapshot parses EncodeSnapshot's format. Arbitrary or corrupted
// bytes are rejected with an error, never half-decoded: every section
// must verify against its checksum before any of it is interpreted.
func DecodeSnapshot(text string) (*Snapshot, error) {
	ver, secs, err := persist.DecodeContainer(snapshotMagic, []byte(text))
	if err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	snap, _, err := snapshotFromSections(ver, secs)
	return snap, err
}

// snapshotFromSections interprets the sections of a decoded container of
// format version ver; unknown sections are returned to the caller (the
// checkpoint loader reads its journal-position section from them).
func snapshotFromSections(ver int, secs []persist.Section) (*Snapshot, []persist.Section, error) {
	if ver != snapshotVersion {
		return nil, nil, fmt.Errorf("runtime: snapshot format version %d, this build reads %d", ver, snapshotVersion)
	}
	snap := &Snapshot{States: map[string][]uint64{}}
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
			if len(s.Data)%8 != 0 {
				return nil, nil, fmt.Errorf("runtime: snapshot state %s is not whole words", path)
			}
			img := make([]uint64, len(s.Data)/8)
			for i := range img {
				img[i] = binary.LittleEndian.Uint64(s.Data[8*i:])
			}
			snap.States[path] = img
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
