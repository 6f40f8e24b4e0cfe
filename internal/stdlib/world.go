// Package stdlib implements Cascade-Go's standard library (paper §3.2):
// Clock, Pad, Led, Reset, Memory, and FIFO. These modules are implicitly
// available to every program, instantiated like user modules
// (Pad#(4) pad()), and backed by pre-compiled engines that live in
// "hardware" from the moment they are instantiated — IO side effects are
// visible immediately, in any JIT compilation state.
//
// The physical buttons, LEDs, and host streams of the paper's testbed
// are replaced by a World: a thread-safe virtual peripheral board that
// tests, examples, and the REPL poke and observe.
package stdlib

import (
	"fmt"
	"sort"
	"sync"

	"cascade/internal/bits"
)

// World is the virtual peripheral board: the state outside the FPGA.
// Keys are subprogram instance paths (e.g. "main.pad").
type World struct {
	mu      sync.Mutex
	inputs  map[string]InputState   // host-driven: pads, reset lines, GPIO input pins
	driven  map[string]*bits.Vector // device-driven: LED banks, GPIO output pins
	streams map[string]*Stream

	// LedTrace records every LED value change when enabled (used by the
	// user-study harness to check expected behaviour).
	TraceLeds bool
	LedTrace  []uint64

	// recorder, when set, observes every committed host-side input
	// event (pad presses, reset lines, GPIO drives) before it is
	// applied — the write-ahead hook the persistence journal uses so a
	// recovering process can replay inputs in their original order.
	recorder InputRecorder
}

// InputRecorder observes host-driven input events. It is invoked under
// the world's lock, immediately before the event takes effect, so the
// record order matches the application order exactly.
type InputRecorder func(kind, path string, value uint64)

// Input-event kinds, as reported to an InputRecorder and accepted by
// ApplyInput.
const (
	InputPad   = "pad"
	InputReset = "reset"
	InputGPIO  = "gpio"
)

// SetInputRecorder installs (or, with nil, removes) the input hook.
func (w *World) SetInputRecorder(rec InputRecorder) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.recorder = rec
}

// InputState is the value of one host-driven input surface.
type InputState struct {
	Kind  string
	Path  string
	Value uint64
}

// InputStates snapshots every host-driven input value in deterministic
// order (checkpoints store these so a recovered board matches the
// original one even after the journal records that set them are
// compacted away).
func (w *World) InputStates() []InputState {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []InputState
	for _, in := range w.inputs {
		out = append(out, in)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Path < out[j].Path
	})
	return out
}

// ApplyInput sets one host-driven input without invoking the recorder —
// recovery uses it to replay journaled events and restore checkpointed
// input state without re-journaling them.
func (w *World) ApplyInput(kind, path string, value uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.set(kind, path, value)
}

// set records one host-driven input (a reset line is asserted or not);
// the caller holds w.mu.
func (w *World) set(kind, path string, value uint64) error {
	switch kind {
	case InputPad, InputGPIO:
	case InputReset:
		value = min(value, 1)
	default:
		return fmt.Errorf("stdlib: unknown input kind %q", kind)
	}
	w.inputs[path] = InputState{Kind: kind, Path: path, Value: value}
	return nil
}

// drive journals one host-driven input through the recorder, then sets it.
func (w *World) drive(kind, path string, value uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.recorder != nil {
		w.recorder(kind, path, value)
	}
	_ = w.set(kind, path, value) // the three setters pass known kinds
}

// input returns the host-driven input of the given kind at path.
func (w *World) input(kind, path string) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if in := w.inputs[path]; in.Kind == kind {
		return in.Value
	}
	return 0
}

// NewWorld returns an empty peripheral board.
func NewWorld() *World {
	return &World{
		inputs:  map[string]InputState{},
		driven:  map[string]*bits.Vector{},
		streams: map[string]*Stream{},
	}
}

// PressPad sets the buttons of the pad at path (bit i = button i down).
func (w *World) PressPad(path string, value uint64) { w.drive(InputPad, path, value) }

// Pad returns the current button state at path.
func (w *World) Pad(path string) uint64 { return w.input(InputPad, path) }

// SetReset asserts or deasserts the reset line at path.
func (w *World) SetReset(path string, asserted bool) {
	w.drive(InputReset, path, b2u(asserted))
}

// DriveGPIO sets the host-driven input pins of the GPIO bank at path.
func (w *World) DriveGPIO(path string, value uint64) { w.drive(InputGPIO, path, value) }

// Led returns the value currently driven onto the LED bank at path.
func (w *World) Led(path string) uint64 { return w.pin(path) }

// GPIO returns the device-driven output pins of the GPIO bank at path.
func (w *World) GPIO(path string) uint64 { return w.pin(path) }

func (w *World) pin(path string) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if v, ok := w.driven[path]; ok {
		return v.Uint64()
	}
	return 0
}

// setPin records the value a device drives onto the pins at path,
// overwriting the vector already there when the width is unchanged (a
// pin bank is driven every tick); an LED bank's change is traced.
func (w *World) setPin(path string, v *bits.Vector, led bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if cur, ok := w.driven[path]; ok && cur.Width() == v.Width() {
		cur.CopyFrom(v)
	} else {
		w.driven[path] = v.Clone()
	}
	if led && w.TraceLeds {
		w.LedTrace = append(w.LedTrace, v.Uint64())
	}
}

// Stream returns the host-side endpoint of the FIFO at path, creating it
// on first use.
func (w *World) Stream(path string) *Stream {
	w.mu.Lock()
	defer w.mu.Unlock()
	s, ok := w.streams[path]
	if !ok {
		s = &Stream{}
		w.streams[path] = s
	}
	return s
}

// Stream is the host side of a FIFO: an unbounded buffer in each
// direction. The device-side FIFO engine drains In (respecting its
// depth, which provides back pressure) and fills Out.
type Stream struct {
	mu  sync.Mutex
	in  []uint64
	out []uint64

	// Consumed counts words delivered into the device-side FIFO.
	Consumed uint64
}

// Push queues host-to-device words.
func (s *Stream) Push(words ...uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.in = append(s.in, words...)
}

// PushBytes queues host-to-device bytes.
func (s *Stream) PushBytes(b []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, x := range b {
		s.in = append(s.in, uint64(x))
	}
}

// PendingIn returns how many words remain queued toward the device.
func (s *Stream) PendingIn() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.in)
}

// take moves up to n words from the host-to-device queue onto q.
func (s *Stream) take(q []uint64, n int) []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > len(s.in) {
		n = len(s.in)
	}
	q = append(q, s.in[:n]...)
	s.in = s.in[n:]
	s.Consumed += uint64(n)
	return q
}

// put appends device-to-host words.
func (s *Stream) put(words ...uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.out = append(s.out, words...)
}

// TakeOutput drains the device-to-host buffer.
func (s *Stream) TakeOutput() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.out
	s.out = nil
	return out
}
