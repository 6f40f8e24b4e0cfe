package transport

import (
	"bytes"
	"path/filepath"
	"testing"

	"cascade/internal/bits"
	"cascade/internal/imagetest"
	"cascade/internal/persist"
	"cascade/internal/proto"
)

func encState(st []uint64) []byte {
	return proto.EncodeRequest(nil, &proto.Request{Kind: proto.KindSetState, State: st})
}

// TestHostJournalReplaySessionOnly is the satellite regression: the
// daemon is killed between session-open and the first spawn. The
// journal holds exactly one record; a fresh host over the same file
// must resume the session (region + tenant + ID) so the reconnecting
// client's spawns bind to it instead of erroring "unknown session".
func TestHostJournalReplaySessionOnly(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "sessions.journal")

	h1 := NewHost(HostOptions{DisableJIT: true})
	if _, _, err := h1.EnableJournal(jpath); err != nil {
		t.Fatal(err)
	}
	var rep proto.Reply
	h1.Handle(&proto.Request{Kind: proto.KindSessionOpen, Path: "alice", Quota: 5000}, &rep)
	if rep.Err != "" {
		t.Fatalf("session open: %s", rep.Err)
	}
	sess := rep.Engine
	// SIGKILL: h1 is abandoned without any teardown or journal close.

	h2 := NewHost(HostOptions{DisableJIT: true})
	sessions, engines, err := h2.EnableJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if sessions != 1 || engines != 0 {
		t.Fatalf("resumed sessions=%d engines=%d, want 1 and 0", sessions, engines)
	}
	// The client still holds the old session ID; a spawn bound to it
	// must land in the resumed session.
	h2.Handle(&proto.Request{Kind: proto.KindSpawn, Path: "main.c", Source: ctrSrc, Session: sess}, &rep)
	if rep.Err != "" {
		t.Fatalf("spawn into resumed session: %s", rep.Err)
	}
	// A second open under the same name must still collide: the
	// resumed session is the real one, not a ghost.
	h2.Handle(&proto.Request{Kind: proto.KindSessionOpen, Path: "alice"}, &rep)
	if rep.Err == "" {
		t.Fatal("duplicate session name accepted after replay; session not truly resumed")
	}
}

// TestHostJournalReplaySpawnAndState kills the daemon after a spawn
// and a SetState: replay must re-create the engine under the same ID
// with the journaled state installed, so the reconnecting client
// re-binds and reads back what it wrote.
func TestHostJournalReplaySpawnAndState(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "sessions.journal")

	h1 := NewHost(HostOptions{DisableJIT: true})
	if _, _, err := h1.EnableJournal(jpath); err != nil {
		t.Fatal(err)
	}
	var rep proto.Reply
	h1.Handle(&proto.Request{Kind: proto.KindSpawn, Path: "main.c", Source: ctrSrc}, &rep)
	if rep.Err != "" {
		t.Fatalf("spawn: %s", rep.Err)
	}
	id := rep.Engine

	// Advance the engine a few steps locally, then push the state back
	// as a client SetState (the journaled mutation).
	h1.Handle(&proto.Request{Kind: proto.KindGetState, Engine: id}, &rep)
	st := rep.State
	imagetest.Of(ctrLayout, st).Set("n", bits.FromUint64(8, 42))
	h1.Handle(&proto.Request{Kind: proto.KindSetState, Engine: id, State: st}, &rep)
	if rep.Err != "" {
		t.Fatalf("set state: %s", rep.Err)
	}
	want := encState(st)
	// SIGKILL.

	h2 := NewHost(HostOptions{DisableJIT: true})
	sessions, engines, err := h2.EnableJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if sessions != 0 || engines != 1 {
		t.Fatalf("resumed sessions=%d engines=%d, want 0 and 1", sessions, engines)
	}
	h2.Handle(&proto.Request{Kind: proto.KindGetState, Engine: id}, &rep)
	if rep.Err != "" {
		t.Fatalf("get state after replay: %s", rep.Err)
	}
	if !bytes.Equal(encState(rep.State), want) {
		t.Fatal("replayed engine state diverges from the journaled SetState")
	}
	// New spawns must not collide with the replayed ID.
	h2.Handle(&proto.Request{Kind: proto.KindSpawn, Path: "main.d", Source: ctrSrc}, &rep)
	if rep.Err != "" {
		t.Fatalf("post-replay spawn: %s", rep.Err)
	}
	if rep.Engine == id {
		t.Fatalf("post-replay spawn reused live engine ID %d", id)
	}
}

// TestHostJournalReplaysStateImage: a SetState record journals the
// request as the protocol encodes it — the image, under protocol
// version 8 — and replays onto the respawned engine; a record an older
// protocol wrote (version 7) no longer decodes and is skipped, the
// records after it still replayed.
func TestHostJournalReplaysStateImage(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "sessions.journal")
	h1 := NewHost(HostOptions{DisableJIT: true})
	if _, _, err := h1.EnableJournal(jpath); err != nil {
		t.Fatal(err)
	}
	var rep proto.Reply
	h1.Handle(&proto.Request{Kind: proto.KindSpawn, Path: "main.c", Source: ctrSrc}, &rep)
	id := rep.Engine
	img := make([]uint64, ctrLayout.Len())
	imagetest.Of(ctrLayout, img).Set("n", bits.FromUint64(8, 99))
	h1.Handle(&proto.Request{Kind: proto.KindSetState, Engine: id, State: img}, &rep)
	if rep.Err != "" {
		t.Fatalf("set state: %s", rep.Err)
	}
	// SIGKILL. A record of the older protocol lands before the next start.
	jr, recs, err := persist.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if last := recs[len(recs)-1].Data; proto.Version != 8 || last[0] != proto.Version || last[1] != byte(proto.KindSetState) {
		t.Fatalf("the SetState record is not a version 8 SetState request: % x", last[:2])
	}
	old := append([]byte{7}, recs[len(recs)-1].Data[1:]...)
	if _, err := proto.DecodeRequest(old); err == nil {
		t.Fatal("a version 7 record decodes")
	}
	imagetest.Of(ctrLayout, img).Set("n", bits.FromUint64(8, 77))
	again := proto.EncodeRequest(nil, &proto.Request{Kind: proto.KindSetState, Engine: id, State: img})
	for _, data := range [][]byte{old, again} {
		if err := jr.Append(jr.LastSeq()+1, hostJournalRequest, data); err != nil {
			t.Fatal(err)
		}
	}
	jr.Close()

	h2 := NewHost(HostOptions{DisableJIT: true})
	if _, engines, err := h2.EnableJournal(jpath); err != nil || engines != 1 {
		t.Fatalf("resumed %d engines (%v), want 1", engines, err)
	}
	h2.Handle(&proto.Request{Kind: proto.KindGetState, Engine: id}, &rep)
	if got := imagetest.Of(ctrLayout, rep.State).Scalar("n").Uint64(); rep.Err != "" || got != 77 {
		t.Fatalf("replayed n = %d (%s), want the last journaled 77", got, rep.Err)
	}
}
