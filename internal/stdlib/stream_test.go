package stdlib

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"cascade/internal/bits"
	"cascade/internal/engine"
	"cascade/internal/golden"
)

// TestFIFOStateGolden runs one push/pop script through a FIFO of depth 4,
// long enough for the queue's head to go round its storage several
// times, and records the state image after every step: the count word,
// then the queue in order, then the phase and the sampled pop and push.
func TestFIFOStateGolden(t *testing.T) {
	w := NewWorld()
	f := NewFIFO("f", 8, 4, w)
	engine.Collect(f)
	s := w.Stream("f")
	var rec strings.Builder
	for i := range 40 {
		switch i {
		case 0:
			s.Push(1, 2, 3)
		case 6:
			s.PushBytes([]byte{4, 5, 6, 7, 8, 9})
		case 15:
			s.Push(10)
			s.PushBytes([]byte{11, 12})
		case 24:
			s.PushBytes([]byte{13, 14, 15, 16, 17, 18, 19})
		}
		// Pop on most ticks, hold now and then so the queue fills.
		f.Read(engine.Event{Var: "rreq", Val: bits.FromUint64(1, b2u(i%7 != 3 && i%7 != 4))})
		f.Read(engine.Event{Var: "wreq", Val: bits.FromUint64(1, b2u(i%9 == 5))})
		f.Read(engine.Event{Var: "wdata", Val: bits.FromUint64(8, uint64(100+i))})
		step(f)
		fmt.Fprintf(&rec, "%2d %x\n", i, f.GetState())
	}
	fmt.Fprintf(&rec, "out %v, pending %d, consumed %d\n", s.TakeOutput(), s.PendingIn(), s.Consumed)
	golden.Check(t, "fifo", rec.String())
}

// TestStreamChunkOrder: words pushed by Push and bytes pushed by PushBytes
// come out in push order whatever the sizes taken, PendingIn and Consumed
// are exact after every take, and a chunk taken whole is no longer held.
func TestStreamChunkOrder(t *testing.T) {
	s := NewWorld().Stream("s")
	s.Push(1, 2, 3)
	s.PushBytes([]byte{4, 5})
	s.Push()              // nothing queued
	s.PushBytes([]byte{}) // nor here
	s.Push(6)
	s.PushBytes([]byte{7, 8, 9, 10})
	if got := s.HeldChunks(); got != 4 {
		t.Fatalf("%d chunks held, want 4", got)
	}
	var got []uint64
	for _, c := range []struct{ take, held int }{{2, 4}, {1, 3}, {3, 1}, {1, 1}, {5, 0}, {4, 0}} {
		dst := make([]uint64, c.take)
		n := s.take(dst)
		got = append(got, dst[:n]...)
		if s.PendingIn() != 10-len(got) || s.Consumed != uint64(len(got)) {
			t.Fatalf("after %d words: pending %d, consumed %d", len(got), s.PendingIn(), s.Consumed)
		}
		if h := s.HeldChunks(); h != c.held {
			t.Fatalf("after %d words: %d chunks held, want %d", len(got), h, c.held)
		}
	}
	if want := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}; !slices.Equal(got, want) {
		t.Fatalf("took %v, want %v", got, want)
	}
	// A pushed slice is copied: the caller may reuse it.
	b := []byte{11}
	s.PushBytes(b)
	b[0] = 99
	if dst := make([]uint64, 1); s.take(dst) != 1 || dst[0] != 11 {
		t.Fatalf("took %v, want [11]", dst)
	}
}

// TestFIFOStateRoundTripAfterWrap: a state image taken after the queue
// has wrapped round its ring restores into a fresh FIFO that then behaves
// as the original does, step by step.
func TestFIFOStateRoundTripAfterWrap(t *testing.T) {
	w := NewWorld()
	a := NewFIFO("a", 8, 3, w)
	w.Stream("a").Push(1, 2, 3, 4, 5, 6, 7, 8, 9)
	pop := engine.Event{Var: "rreq", Val: bits.FromUint64(1, 1)}
	a.Read(pop)
	for steps := 0; a.head+a.n <= len(a.ring); steps++ { // until the queue wraps
		if steps == 20 {
			t.Fatalf("head at %d of %d with %d queued: the queue never wrapped", a.head, len(a.ring), a.n)
		}
		step(a)
	}
	img := a.GetState()
	wb := NewWorld()
	wb.Stream("b").Push([]uint64{1, 2, 3, 4, 5, 6, 7, 8, 9}[w.Stream("a").Consumed:]...)
	b := NewFIFO("b", 8, 3, wb)
	b.SetState(img)
	b.Read(pop)
	if got := b.GetState(); !slices.Equal(got, img) {
		t.Fatalf("restored image %v, want %v", got, img)
	}
	for i := range 8 {
		step(a)
		step(b)
		if ga, gb := a.GetState(), b.GetState(); !slices.Equal(ga[:5], gb[:5]) {
			t.Fatalf("step %d: queues diverge: %v vs %v", i, ga, gb)
		}
	}
}

// TestStreamPushWhileStepping: a second goroutine pushes words and bytes
// while the controller steps the FIFO, and every word arrives in order.
func TestStreamPushWhileStepping(t *testing.T) {
	const n = 5000
	word := func(k int) uint64 { return uint64(k%255) + 1 } // no two in a row equal
	w := NewWorld()
	f := NewFIFO("f", 8, 16, w)
	f.Read(engine.Event{Var: "rreq", Val: bits.FromUint64(1, 1)})
	engine.Collect(f) // the initial broadcast
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := w.Stream("f")
		for k := 0; k < n; {
			m := min(1+k%7, n-k)
			if k%2 == 0 {
				words := make([]uint64, m)
				for i := range words {
					words[i] = word(k + i)
				}
				s.Push(words...)
			} else {
				b := make([]byte, m)
				for i := range b {
					b[i] = byte(word(k + i))
				}
				s.PushBytes(b)
			}
			k += m
		}
	}()
	// rdata shows each word as it reaches the head; consecutive words
	// differ, so every change is the next word.
	var got []uint64
	for steps := 0; len(got) < n && steps < 100*n; steps++ {
		step(f)
		f.VisitWrites(func(name string, v *bits.Vector) {
			if name == "rdata" {
				got = append(got, v.Uint64())
			}
		})
	}
	wg.Wait()
	for k := range n {
		if k >= len(got) || got[k] != word(k) {
			t.Fatalf("word %d of %d: got %v", k, len(got), got[max(0, k-2):min(len(got), k+3)])
		}
	}
	if s := w.Stream("f"); s.Consumed != n || s.PendingIn() != 0 {
		t.Fatalf("consumed %d, pending %d", s.Consumed, s.PendingIn())
	}
}
