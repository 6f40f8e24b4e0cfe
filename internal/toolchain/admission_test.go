package toolchain

import (
	"context"
	"errors"
	"testing"

	"cascade/internal/fpga"
	"cascade/internal/vclock"
)

// TestAdmissionControlSheds pins the bounded submit queue: with
// MaxQueue in-flight submissions outstanding, the next one is shed
// immediately with a typed ErrOverloaded result, and admission reopens
// once an in-flight job is observed ready on the virtual clock.
func TestAdmissionControlSheds(t *testing.T) {
	o := DefaultOptions()
	o.MaxQueue = 1
	tc := New(fpga.NewCycloneV(), o)
	ctx := context.Background()

	a := tc.Submit(ctx, flatFor(t, smallCounter), false, 0)
	b := tc.Submit(ctx, flatFor(t, bigDatapath), false, 0)
	res := b.Result()
	if res == nil || res.Err == nil {
		t.Fatal("second submission was admitted past MaxQueue=1")
	}
	if !errors.Is(res.Err, ErrOverloaded) {
		t.Fatalf("shed error not errors.Is(ErrOverloaded): %v", res.Err)
	}
	if b.Canceled() {
		t.Fatal("a shed job fails; it is not cancelled")
	}
	if got := tc.Stats().Shed; got != 1 {
		t.Fatalf("Shed counter = %d, want 1", got)
	}

	// A shed is a backoff signal, not a verdict on the design: once the
	// in-flight job is observed ready, a resubmission is admitted and
	// compiles.
	readyAt, ok := a.ReadyAt()
	if !ok {
		t.Fatal("first job lost")
	}
	if !a.Ready(readyAt) {
		t.Fatal("first job not ready at its own ready time")
	}
	c := tc.Submit(ctx, flatFor(t, bigDatapath), false, readyAt)
	if res := c.Result(); res == nil || res.Err != nil {
		t.Fatalf("resubmission after drain failed: %+v", res)
	}
	if got := tc.Stats().Shed; got != 1 {
		t.Fatalf("Shed counter after drain = %d, want still 1", got)
	}
}

// TestAdmissionControlCancelFreesSlot: cancelling an in-flight job
// must release its admission slot — otherwise abandoned compiles
// permanently shrink the queue.
func TestAdmissionControlCancelFreesSlot(t *testing.T) {
	o := DefaultOptions()
	o.MaxQueue = 1
	tc := New(fpga.NewCycloneV(), o)
	ctx := context.Background()

	a := tc.Submit(ctx, flatFor(t, smallCounter), false, 0)
	a.Wait()
	a.Cancel()
	b := tc.Submit(ctx, flatFor(t, bigDatapath), false, vclock.S)
	if res := b.Result(); res == nil || res.Err != nil {
		t.Fatalf("submission after cancel was shed: %+v", res)
	}
}

// TestAdmissionControlDisabledByDefault: MaxQueue=0 never sheds, no
// matter how many submissions pile up.
func TestAdmissionControlDisabledByDefault(t *testing.T) {
	tc := New(fpga.NewCycloneV(), DefaultOptions())
	ctx := context.Background()
	jobs := make([]*Job, 8)
	for i := range jobs {
		jobs[i] = tc.Submit(ctx, flatFor(t, smallCounter), false, 0)
	}
	for i, j := range jobs {
		if res := j.Result(); res == nil || res.Err != nil {
			t.Fatalf("job %d failed without admission control: %+v", i, res)
		}
	}
	if got := tc.Stats().Shed; got != 0 {
		t.Fatalf("Shed counter = %d, want 0", got)
	}
}
