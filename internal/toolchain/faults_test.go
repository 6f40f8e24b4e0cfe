package toolchain

import (
	"context"
	"errors"
	"strings"
	"testing"

	"cascade/internal/fault"
	"cascade/internal/fpga"
	"cascade/internal/vclock"
)

// TestTransientFaultRetriedWithBackoff: a flow whose first attempts hit
// transient faults retries with capped exponential backoff in virtual
// time, then succeeds; the result's ready time carries the backoff and
// Stats surfaces the retries.
func TestTransientFaultRetriedWithBackoff(t *testing.T) {
	o := DefaultOptions()
	o.Workers = 1
	tc := New(fpga.NewCycloneV(), o)
	tc.SetFaults(fault.New(fault.Config{Seed: 1, CompileTransient: 1, MaxCompileFaults: 2}))

	f := flatFor(t, smallCounter)
	j := tc.Submit(context.Background(), f, true, 0)
	res := j.Result()
	if res == nil || res.Err != nil || j.Canceled() {
		t.Fatalf("retried flow must succeed: %+v", res)
	}
	// The two retries cost base + 2*base of backoff on top of the clean
	// flow's duration.
	clean := New(fpga.NewCycloneV(), o).CompileSync(f, true)
	wantBackoff := o.RetryBasePs + 2*o.RetryBasePs
	if got := res.DurationPs - clean.DurationPs; got != wantBackoff {
		t.Fatalf("backoff billed %d ps, want %d ps", got, wantBackoff)
	}
	st := tc.Stats()
	if st.Retried != 2 || st.TransientFaults != 2 || st.PermanentFaults != 0 {
		t.Fatalf("stats wrong: %+v", st)
	}
}

// TestBackoffIsCapped: the per-attempt backoff doubles up to RetryCapPs
// and no further.
func TestBackoffIsCapped(t *testing.T) {
	o := DefaultOptions()
	o.RetryBasePs = 10 * vclock.S
	o.RetryCapPs = 25 * vclock.S
	tc := New(fpga.NewCycloneV(), o)
	want := []uint64{10 * vclock.S, 20 * vclock.S, 25 * vclock.S, 25 * vclock.S}
	for i, w := range want {
		if got := tc.backoffPs(i); got != w {
			t.Fatalf("backoff(%d) = %d, want %d", i, got, w)
		}
	}
}

// TestPermanentFaultFailsOnce: a permanent fault fails the job without
// retries, classifies as permanent in Stats, and the error is reported
// through the result exactly once (the job is never re-queued by the
// service itself).
func TestPermanentFaultFailsOnce(t *testing.T) {
	o := DefaultOptions()
	o.Workers = 1
	tc := New(fpga.NewCycloneV(), o)
	tc.SetFaults(fault.New(fault.Config{Seed: 1, CompilePermanent: 1, MaxCompileFaults: 1}))

	j := tc.Submit(context.Background(), flatFor(t, smallCounter), true, 0)
	res := j.Result()
	if res == nil || res.Err == nil {
		t.Fatalf("permanent fault must fail the job: %+v", res)
	}
	var fe *fault.Error
	if fault.IsTransient(res.Err) || !errors.As(res.Err, &fe) {
		t.Fatalf("error lost its classification: %v", res.Err)
	}
	st := tc.Stats()
	if st.PermanentFaults != 1 || st.Retried != 0 {
		t.Fatalf("stats wrong: %+v", st)
	}
	if !strings.Contains(res.Err.Error(), "permanent") {
		t.Fatalf("error text should name the class: %v", res.Err)
	}
}

// TestRetriesExhaustedFailTransient: when transient faults outlast
// MaxRetries the job fails, but the error stays classified transient so
// the caller may resubmit.
func TestRetriesExhaustedFailTransient(t *testing.T) {
	o := DefaultOptions()
	o.Workers = 1
	o.MaxRetries = 2
	tc := New(fpga.NewCycloneV(), o)
	tc.SetFaults(fault.New(fault.Config{Seed: 5, CompileTransient: 1})) // uncapped

	j := tc.Submit(context.Background(), flatFor(t, smallCounter), true, 0)
	res := j.Result()
	if res == nil || res.Err == nil {
		t.Fatal("exhausted retries must fail the job")
	}
	if !fault.IsTransient(res.Err) {
		t.Fatalf("exhausted transient faults must stay transient: %v", res.Err)
	}
	if st := tc.Stats(); st.Retried != 2 || st.TransientFaults != 3 {
		t.Fatalf("stats wrong: %+v", st)
	}
}

// TestFaultyFlowStillCaches: a flow that succeeded after retries lands
// in the bitstream cache; an identical later submission hits without
// re-running the flow (and without re-consulting the exhausted fault
// site, since probability-1 faults are capped).
func TestFaultyFlowStillCaches(t *testing.T) {
	o := DefaultOptions()
	o.Workers = 1
	tc := New(fpga.NewCycloneV(), o)
	tc.SetFaults(fault.New(fault.Config{Seed: 1, CompileTransient: 1, MaxCompileFaults: 1}))

	f := flatFor(t, smallCounter)
	j1 := tc.Submit(context.Background(), f, true, 0)
	at, ok := j1.ReadyAt()
	if !ok {
		t.Fatal("first job canceled?")
	}
	if !j1.Ready(at) {
		t.Fatal("job not ready at its own ready time")
	}
	j2 := tc.Submit(context.Background(), f, true, at)
	res := j2.Result()
	if res == nil || res.Err != nil || !res.CacheHit {
		t.Fatalf("resubmission must hit the cache: %+v", res)
	}
	if tc.Stats().CacheHits != 1 {
		t.Fatalf("stats: %+v", tc.Stats())
	}
}
