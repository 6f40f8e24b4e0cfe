package proto

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"cascade/internal/bits"
	"cascade/internal/engine"
)

// testState is an image of an 8-bit, a 97-bit and a three-element
// 16-bit variable.
func testState() []uint64 {
	return []uint64{0xa5, 0xdeadbeef, 1 << 32, 1, 0xffff, 0}
}

// bigVec is a 97-bit value.
func bigVec() *bits.Vector {
	return bits.FromUint64(97, 1).ShlUint(96).Or(bits.FromUint64(97, 0xdeadbeef))
}

func TestRequestRoundTrip(t *testing.T) {
	reqs := []*Request{
		{Kind: KindSpawn, Now: 3, VNow: 1e12, Path: "main.m", Source: "module m(); endmodule",
			Params: map[string]*bits.Vector{"W": bits.FromUint64(32, 8)}, Eager: true, JIT: true},
		{Kind: KindRead, Engine: 7, Now: 11, Var: "clk", Val: bits.FromUint64(1, 1)},
		{Kind: KindSetState, Engine: 2, State: testState()},
		{Kind: KindSetState, Engine: 2, State: []uint64{}},
		{Kind: KindEvaluate, Engine: 9, Now: 1 << 40, VNow: 1 << 50},
		{Kind: KindGetState, Engine: 1},
		{Kind: KindEnd, Engine: 3},
		{Kind: KindSpawn, Path: "main.m", Source: "module m(); endmodule", JIT: true, Session: 4},
		{Kind: KindSessionOpen, Path: "tenant-a", Quota: 12_000, Share: 2},
		{Kind: KindSessionClose, Session: 9},
		{Kind: KindCompileSubmit, VNow: 7, Farm: &FarmJob{
			Key: "fp|wrapped=true", Name: "main.m", Wrapped: true,
			SubmitPs: 1 << 44, BackoffPs: 5e12,
			Cells: 1200, FFs: 340, MemBits: 4096, CritPath: 17}},
		{Kind: KindCacheFetch, Farm: &FarmJob{Key: "tenant=a|fp"}},
		{Kind: KindCachePut, Farm: &FarmJob{Key: "fp|wrapped=false"}},
		{Kind: KindRound, Now: 5, VNow: 1 << 40, Phase: RoundEvals,
			Inputs: []RoundInput{
				{Engine: 2, Var: "clk", Val: bits.FromUint64(1, 1)},
				{Engine: 3, Var: "d", Val: bigVec()}},
			Members: []uint32{2, 3, 300}},
		{Kind: KindRound, Phase: RoundUpdates, Members: []uint32{1}},
		{Kind: KindRound, Now: 6, Phase: RoundEndStep, Members: []uint32{1, 2}},
		{Kind: KindRound, Now: 7, Phase: RoundChained, Members: []uint32{1, 2}},
		{Kind: KindRound, Phase: RoundInputs,
			Inputs:  []RoundInput{{Engine: 7, Var: "in", Val: bits.FromUint64(8, 0x5a)}},
			Members: []uint32{7}},
	}
	for _, req := range reqs {
		enc := EncodeRequest(nil, req)
		got, err := DecodeRequest(enc)
		if err != nil {
			t.Fatalf("%v: decode: %v", req.Kind, err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Errorf("%v: round trip mismatch\n got %+v\nwant %+v", req.Kind, got, req)
		}
	}
}

func TestReplyRoundTrip(t *testing.T) {
	reps := []*Reply{
		{Kind: KindSpawn, Engine: 12, Loc: engine.Software,
			IO: []IOEvent{{Kind: IODisplay, Text: "hello", Newline: true}}},
		{Kind: KindThereAreEvals, Engine: 1, Bool: true, Usage: engine.Usage{Ops: 41, Msgs: 2}},
		{Kind: KindDrainWrites, Engine: 1, Loc: engine.Hardware,
			Usage:  engine.Usage{Cycles: 99, Msgs: 3},
			Events: []engine.Event{{Var: "out", Val: bits.FromUint64(8, 0x42)}},
			IO:     []IOEvent{{Kind: IOFinish, Code: 2}}},
		{Kind: KindGetState, Engine: 4, State: testState()},
		{Kind: KindGetState, Engine: 4, State: []uint64{}},
		{Kind: KindEvaluate, Engine: 5, Err: "engine 5 unknown"},
		{Kind: KindCompileSubmit, Epoch: 3, Farm: &FarmResult{
			AreaLEs: 910, RawAreaLEs: 850, CritPath: 14, DurationPs: 47e12,
			CacheHit: true, HitSource: "disk"}},
		{Kind: KindCompileSubmit, Farm: &FarmResult{FlowErr: "toolchain: design requires 99 LEs"}},
		{Kind: KindCacheFetch, Farm: &FarmResult{Found: true, AreaLEs: 1, RawAreaLEs: 1, CritPath: 1}},
		{Kind: KindRound, Epoch: 7, Round: []RoundResult{
			{Loc: engine.Hardware, Usage: engine.Usage{Cycles: 2, Msgs: 5}, Ran: true,
				Events: []engine.Event{{Var: "out", Val: bits.FromUint64(8, 0x42)}},
				IO:     []IOEvent{{Kind: IODisplay, Text: "n=1", Newline: true}, {Kind: IOFinish}}},
			{Err: "unknown engine 9"},
			{Loc: engine.Software, Usage: engine.Usage{Ops: 3, NativeOps: 1}},
		}},
		{Kind: KindRound},
	}
	for _, rep := range reps {
		enc := EncodeReply(nil, rep)
		var got Reply
		if err := DecodeReply(enc, &got); err != nil {
			t.Fatalf("%v: decode: %v", rep.Kind, err)
		}
		if !reflect.DeepEqual(&got, rep) {
			t.Errorf("%v: round trip mismatch\n got %+v\nwant %+v", rep.Kind, &got, rep)
		}
	}
}

// TestStateEncodingDeterministic checks that identical states produce
// identical bytes.
func TestStateEncodingDeterministic(t *testing.T) {
	a := appendState(nil, testState())
	for i := 0; i < 32; i++ {
		if b := appendState(nil, testState()); !bytes.Equal(a, b) {
			t.Fatal("state encoding varies across runs")
		}
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	valid := EncodeRequest(nil, &Request{Kind: KindRead, Engine: 1, Var: "x", Val: bits.FromUint64(8, 1)})
	cases := map[string][]byte{
		"empty":        {},
		"bad version":  {99, byte(KindRead)},
		"bad kind":     {Version, 0},
		"kind too big": {Version, byte(kindMax)},
		"truncated":    valid[:len(valid)-2],
		"trailing":     append(append([]byte{}, valid...), 0xff),
		"huge count": append(EncodeRequest(nil, &Request{Kind: KindSpawn})[:0],
			Version, byte(KindSpawn), 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f),
	}
	// A round frame: header, phase, input count, inputs, member count, ids.
	round := func(tail ...byte) []byte {
		return append([]byte{Version, byte(KindRound), 0, 0, 0}, tail...)
	}
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0x0f}
	cases["round: no phase"] = round(0, 0, 0)
	cases["round: unknown phase"] = round(byte(roundPhaseMax), 0, 0)
	cases["round: input count beyond the bytes"] = round(append([]byte{byte(RoundEvals)}, huge...)...)
	cases["round: member count beyond the bytes"] = round(append([]byte{byte(RoundEvals), 0}, huge...)...)
	cases["round: nil input value"] = round(byte(RoundInputs), 1, 7, 1, 'x', 0, 1, 7)
	cases["round: truncated input"] = round(byte(RoundInputs), 1, 7, 1, 'x', 8)
	// A state frame: header, presence, word count, words.
	state := func(tail ...byte) []byte {
		return append([]byte{Version, byte(KindSetState), 0, 0, 0, 1}, tail...)
	}
	cases["state: word count beyond the bytes"] = state(huge...)
	cases["state: a word cut short"] = state(append([]byte{2}, make([]byte, 12)...)...)
	for name, data := range cases {
		if _, err := DecodeRequest(data); err == nil {
			t.Errorf("%s: decode accepted malformed input", name)
		}
	}
	empty := EncodeReply(nil, &Reply{Kind: KindRound}) // ends in the result count, 0
	replies := map[string][]byte{
		"truncated":                          {Version, byte(KindEvaluate), 1},
		"result count beyond the bytes":      append(empty[:len(empty)-1:len(empty)-1], huge...),
		"result count without the results":   append(empty[:len(empty)-1:len(empty)-1], 2),
		"results on a reply of another kind": append(EncodeReply(nil, &Reply{Kind: KindEvaluate}), 0),
	}
	var rep Reply
	for name, data := range replies {
		if err := DecodeReply(data, &rep); err == nil {
			t.Errorf("reply %s: decode accepted malformed input", name)
		}
	}
}

// TestDecodeReusesRoundArrays: a serving loop decodes every frame into
// one Request and one Reply; what a shorter frame leaves in the reused
// arrays must not leak into it, and the arrays must be the same ones.
func TestDecodeReusesRoundArrays(t *testing.T) {
	big := &Reply{Kind: KindRound, Round: []RoundResult{
		{Ran: true, Events: []engine.Event{{Var: "a", Val: bits.FromUint64(4, 1)}, {Var: "b", Val: bits.FromUint64(4, 2)}},
			IO: []IOEvent{{Kind: IODisplay, Text: "x"}}},
		{Err: "gone"}, {Ran: true},
	}}
	small := &Reply{Kind: KindRound, Round: []RoundResult{{Loc: engine.Hardware}}}
	var rep, want Reply
	if err := DecodeReply(EncodeReply(nil, big), &rep); err != nil {
		t.Fatal(err)
	}
	first := &rep.Round[0]
	if err := DecodeReply(EncodeReply(nil, small), &rep); err != nil {
		t.Fatal(err)
	}
	if err := DecodeReply(EncodeReply(nil, small), &want); err != nil {
		t.Fatal(err)
	}
	if &rep.Round[0] != first {
		t.Error("reply result array reallocated")
	}
	if got := rep.Round; len(got) != 1 || len(got[0].Events) != 0 || len(got[0].IO) != 0 ||
		got[0].Ran || got[0].Err != "" || got[0].Loc != want.Round[0].Loc {
		t.Errorf("stale data in reused reply: %+v", got)
	}

	var req Request
	for _, src := range []*Request{
		{Kind: KindRound, Phase: RoundEvals, Members: []uint32{1, 2, 3},
			Inputs: []RoundInput{{Engine: 1, Var: "c", Val: bits.FromUint64(1, 1)}}},
		{Kind: KindRound, Phase: RoundUpdates, Members: []uint32{4}},
		{Kind: KindEvaluate, Engine: 4},
	} {
		if err := DecodeRequestInto(EncodeRequest(nil, src), &req); err != nil {
			t.Fatal(err)
		}
		if len(req.Inputs) != len(src.Inputs) || !reflect.DeepEqual(append([]uint32(nil), req.Members...), src.Members) {
			t.Errorf("%v into a reused request: inputs %v members %v", src.Kind, req.Inputs, req.Members)
		}
	}
}

// TestDecodeReusesRoundVectors: a serving loop decoding same-shape round
// frames into one Request, and a link decoding their replies into one
// Reply, allocate nothing: each input's and each event's name and vector
// are the ones decoded into its place before — a vector reshaped to
// another width when it has the room — and still decode to the values
// sent.
func TestDecodeReusesRoundVectors(t *testing.T) {
	wide := bits.FromUint64(100, 7).ShlUint(90)
	req := EncodeRequest(nil, &Request{Kind: KindRound, Phase: RoundChained, Members: []uint32{1, 2},
		Inputs: []RoundInput{{Engine: 1, Var: "clk", Val: bits.FromUint64(1, 1)}, {Engine: 2, Var: "d", Val: bits.FromUint64(8, 0xa5)},
			{Engine: 2, Var: "w", Val: wide}}})
	rep := EncodeReply(nil, &Reply{Kind: KindRound, Round: []RoundResult{
		{Ran: true, Events: []engine.Event{{Var: "b", Val: bits.FromUint64(1, 1)}, {Var: "out", Val: bits.FromUint64(8, 3)}}},
		{Ran: true, Events: []engine.Event{{Var: "w", Val: wide}}},
	}})
	// The same slots at other widths: 8 bits where 1 was and 1 where 8.
	swapped := EncodeRequest(nil, &Request{Kind: KindRound, Phase: RoundChained, Members: []uint32{1, 2},
		Inputs: []RoundInput{{Engine: 2, Var: "d", Val: bits.FromUint64(8, 0x5a)}, {Engine: 1, Var: "clk", Val: bits.FromUint64(1, 0)},
			{Engine: 2, Var: "w", Val: wide}}})

	var gotReq, wantReq Request
	var gotRep, wantRep Reply
	decode := func() {
		if err := DecodeRequestInto(req, &gotReq); err != nil {
			t.Fatal(err)
		}
		if err := DecodeReply(rep, &gotRep); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	if n := testing.AllocsPerRun(20, decode); n != 0 {
		t.Errorf("decoding a same-shape round frame and reply again allocates %.0f times, want 0", n)
	}
	for _, data := range [][]byte{swapped, req} {
		val := gotReq.Inputs[0].Val
		if err := DecodeRequestInto(data, &gotReq); err != nil {
			t.Fatal(err)
		}
		if err := DecodeRequestInto(data, &wantReq); err != nil {
			t.Fatal(err)
		}
		if gotReq.Inputs[0].Val != val {
			t.Error("an input's vector was not reused at another width")
		}
		if fmt.Sprint(gotReq.Inputs) != fmt.Sprint(wantReq.Inputs) {
			t.Errorf("reused inputs decode to %v, want %v", gotReq.Inputs, wantReq.Inputs)
		}
		wantReq = Request{}
	}
	if err := DecodeReply(rep, &wantRep); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(gotRep.Round) != fmt.Sprint(wantRep.Round) {
		t.Errorf("reused results decode to %v, want %v", gotRep.Round, wantRep.Round)
	}
}

func TestFraming(t *testing.T) {
	rep := &Reply{Kind: KindEndStep, Engine: 8}
	payload := EncodeReply(nil, rep)
	// A frame appends after what dst already holds.
	frame, err := AppendFrame([]byte("x"), EncodeReply, rep)
	if err != nil {
		t.Fatal(err)
	}
	if frame[0] != 'x' {
		t.Fatal("AppendFrame overwrote dst")
	}
	got, err := ReadFrame(bytes.NewReader(frame[1:]), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("frame payload mismatch")
	}
	// Oversized header is rejected without reading the body.
	var hdr bytes.Buffer
	hdr.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadFrame(&hdr, nil); err != ErrFrameTooLarge {
		t.Fatalf("oversized frame: got %v, want ErrFrameTooLarge", err)
	}
	pad := func(dst []byte, n int) []byte { return append(dst, make([]byte, n)...) }
	if frame, err := AppendFrame([]byte("x"), pad, MaxFrame+1); err != ErrFrameTooLarge || string(frame) != "x" {
		t.Fatalf("oversized append: got %v (%d bytes), want ErrFrameTooLarge and dst as it was", err, len(frame))
	}
	if frame, err := AppendFrame(nil, pad, MaxFrame); err != nil || len(frame) != 4+MaxFrame {
		t.Fatalf("a MaxFrame payload: got %v (%d bytes)", err, len(frame))
	}
}

func TestVectorBytesRoundTrip(t *testing.T) {
	for _, w := range []int{1, 7, 8, 9, 63, 64, 65, 128, 257} {
		v := bits.FromUint64(w, 0x1234567890abcdef)
		got := bits.FromBytesLE(w, v.AppendBytesLE(nil))
		if !got.Equal(v) || got.Width() != w {
			t.Errorf("width %d: bytes round trip mismatch: %v vs %v", w, got, v)
		}
	}
	// Excess input bits beyond the width are truncated (normalization).
	v := bits.FromBytesLE(4, []byte{0xff, 0xff})
	if v.Uint64() != 0xf {
		t.Errorf("FromBytesLE did not normalize: %v", v)
	}
}
