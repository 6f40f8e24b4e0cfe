package proto

import (
	"reflect"
	"testing"

	"cascade/internal/bits"
	"cascade/internal/engine"
)

// FuzzProtoRoundTrip drives both decoders with arbitrary bytes: a
// malformed frame must error (never panic, never over-allocate), and
// anything that decodes must re-encode to a byte-identical message
// (decode ∘ encode is the identity on the codec's image).
func FuzzProtoRoundTrip(f *testing.F) {
	f.Add(EncodeRequest(nil, &Request{Kind: KindSpawn, Path: "main.m",
		Source: "module m(); endmodule",
		Params: map[string]*bits.Vector{"W": bits.FromUint64(32, 8)}}))
	f.Add(EncodeRequest(nil, &Request{Kind: KindRead, Engine: 1, Var: "clk",
		Val: bits.FromUint64(1, 1)}))
	f.Add(EncodeRequest(nil, &Request{Kind: KindSetState, Engine: 2, State: testState()}))
	f.Add(EncodeReply(nil, &Reply{Kind: KindGetState, Engine: 4, State: testState()}))
	f.Add(EncodeRequest(nil, &Request{Kind: KindSetState, Engine: 2, State: []uint64{}}))
	f.Add(EncodeReply(nil, &Reply{Kind: KindGetState, Engine: 4, State: make([]uint64, 300)}))
	f.Add(EncodeReply(nil, &Reply{Kind: KindDrainWrites, Bool: true,
		IO: []IOEvent{{Kind: IODisplay, Text: "x", Newline: true}, {Kind: IOFinish, Code: 1}}}))
	f.Add(EncodeRequest(nil, &Request{Kind: KindRound, Now: 3, Phase: RoundEvals,
		Inputs:  []RoundInput{{Engine: 1, Var: "clk", Val: bits.FromUint64(1, 1)}},
		Members: []uint32{1, 2}}))
	f.Add(EncodeReply(nil, &Reply{Kind: KindRound, Round: []RoundResult{
		{Ran: true, Events: []engine.Event{{Var: "out", Val: bits.FromUint64(8, 3)}},
			IO: []IOEvent{{Kind: IODisplay, Text: "x", Newline: true}}},
		{Err: "unknown engine 2"}}}))
	f.Add([]byte{Version, byte(KindEvaluate), 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := DecodeRequest(data); err == nil {
			enc := EncodeRequest(nil, req)
			req2, err := DecodeRequest(enc)
			if err != nil {
				t.Fatalf("re-decode of re-encoded request failed: %v", err)
			}
			if !reflect.DeepEqual(req, req2) {
				t.Fatalf("request not stable under encode/decode:\n%+v\n%+v", req, req2)
			}
		}
		var rep Reply
		if err := DecodeReply(data, &rep); err == nil {
			enc := EncodeReply(nil, &rep)
			var rep2 Reply
			if err := DecodeReply(enc, &rep2); err != nil {
				t.Fatalf("re-decode of re-encoded reply failed: %v", err)
			}
			if !reflect.DeepEqual(&rep, &rep2) {
				t.Fatalf("reply not stable under encode/decode:\n%+v\n%+v", &rep, &rep2)
			}
		}
	})
}
