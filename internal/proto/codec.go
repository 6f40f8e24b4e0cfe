package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"cascade/internal/bits"
	"cascade/internal/engine"
)

// MaxFrame caps the length of one framed message. It bounds what a
// decoder will allocate on behalf of a peer; a GetState reply for any
// realistic subprogram fits with orders of magnitude to spare.
const MaxFrame = 16 << 20

// ErrFrameTooLarge reports a frame whose declared length exceeds MaxFrame.
var ErrFrameTooLarge = errors.New("proto: frame exceeds MaxFrame")

// errShort is the generic truncated-message error.
var errShort = errors.New("proto: truncated message")

// encoding ---------------------------------------------------------------

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// appendVec encodes a vector as uvarint(width) + ByteLen little-endian
// bytes. A nil vector encodes as width 0 (no vector has width 0: New
// clamps to 1).
func appendVec(dst []byte, v *bits.Vector) []byte {
	if v == nil {
		return appendUvarint(dst, 0)
	}
	dst = appendUvarint(dst, uint64(v.Width()))
	return v.AppendBytesLE(dst)
}

// appendState encodes a state image: a presence byte, the word count,
// then the words, eight little-endian bytes each.
func appendState(dst []byte, img []uint64) []byte {
	if img == nil {
		return append(dst, 0)
	}
	dst = appendUvarint(append(dst, 1), uint64(len(img)))
	for _, w := range img {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

func appendParams(dst []byte, params map[string]*bits.Vector) []byte {
	names := make([]string, 0, len(params))
	for k := range params {
		names = append(names, k)
	}
	sort.Strings(names)
	dst = appendUvarint(dst, uint64(len(names)))
	for _, k := range names {
		dst = appendString(dst, k)
		dst = appendVec(dst, params[k])
	}
	return dst
}

// EncodeRequest appends req's wire encoding to dst and returns the
// extended slice.
func EncodeRequest(dst []byte, req *Request) []byte {
	dst = append(dst, Version, byte(req.Kind))
	dst = appendUvarint(dst, uint64(req.Engine))
	dst = appendUvarint(dst, req.Now)
	dst = appendUvarint(dst, req.VNow)
	switch req.Kind {
	case KindSpawn:
		dst = appendString(dst, req.Path)
		dst = appendString(dst, req.Source)
		dst = appendParams(dst, req.Params)
		dst = appendBool(dst, req.Eager)
		dst = appendBool(dst, req.JIT)
		dst = appendUvarint(dst, uint64(req.Session))
	case KindRead:
		dst = appendString(dst, req.Var)
		dst = appendVec(dst, req.Val)
	case KindSetState:
		dst = appendState(dst, req.State)
	case KindSessionOpen:
		dst = appendString(dst, req.Path)
		dst = appendUvarint(dst, req.Quota)
		dst = appendUvarint(dst, req.Share)
	case KindSessionClose:
		dst = appendUvarint(dst, uint64(req.Session))
	case KindCompileSubmit:
		f := req.Farm
		if f == nil {
			f = &FarmJob{}
		}
		dst = appendString(dst, f.Key)
		dst = appendString(dst, f.Name)
		dst = appendBool(dst, f.Wrapped)
		dst = appendUvarint(dst, f.SubmitPs)
		dst = appendUvarint(dst, f.BackoffPs)
		dst = appendUvarint(dst, uint64(int64(f.Cells)))
		dst = appendUvarint(dst, uint64(int64(f.FFs)))
		dst = appendUvarint(dst, uint64(int64(f.MemBits)))
		dst = appendUvarint(dst, uint64(int64(f.CritPath)))
	case KindCacheFetch, KindCachePut:
		f := req.Farm
		if f == nil {
			f = &FarmJob{}
		}
		dst = appendString(dst, f.Key)
	case KindRound:
		dst = append(dst, byte(req.Phase))
		dst = appendUvarint(dst, uint64(len(req.Inputs)))
		for i := range req.Inputs {
			in := &req.Inputs[i]
			dst = appendUvarint(dst, uint64(in.Engine))
			dst = appendString(dst, in.Var)
			dst = appendVec(dst, in.Val)
		}
		dst = appendUvarint(dst, uint64(len(req.Members)))
		for _, id := range req.Members {
			dst = appendUvarint(dst, uint64(id))
		}
	}
	return dst
}

// appendResult encodes what every answer about one engine carries: the
// envelope, a flag and drained outputs. A per-call reply's own fields
// travel in the same form (Reply.Bool in place of Ran).
func appendResult(dst []byte, res *RoundResult) []byte {
	dst = appendString(dst, res.Err)
	dst = append(dst, byte(res.Loc))
	dst = appendUvarint(dst, res.Usage.Ops)
	dst = appendUvarint(dst, res.Usage.Cycles)
	dst = appendUvarint(dst, res.Usage.Msgs)
	dst = appendUvarint(dst, res.Usage.NativeOps)
	dst = appendUvarint(dst, uint64(len(res.IO)))
	for _, ev := range res.IO {
		dst = append(dst, byte(ev.Kind))
		switch ev.Kind {
		case IODisplay:
			dst = appendString(dst, ev.Text)
			dst = appendBool(dst, ev.Newline)
		case IOFinish:
			dst = appendUvarint(dst, uint64(int64(ev.Code)))
		}
	}
	dst = appendBool(dst, res.Ran)
	dst = appendUvarint(dst, uint64(len(res.Events)))
	for _, ev := range res.Events {
		dst = appendString(dst, ev.Var)
		dst = appendVec(dst, ev.Val)
	}
	return dst
}

// EncodeReply appends rep's wire encoding to dst and returns the
// extended slice.
func EncodeReply(dst []byte, rep *Reply) []byte {
	dst = append(dst, Version, byte(rep.Kind))
	dst = appendUvarint(dst, uint64(rep.Engine))
	dst = appendResult(dst, &RoundResult{Err: rep.Err, Loc: rep.Loc, Usage: rep.Usage,
		IO: rep.IO, Ran: rep.Bool, Events: rep.Events})
	dst = appendState(dst, rep.State)
	dst = appendUvarint(dst, uint64(rep.Epoch))
	if rep.Farm == nil {
		dst = append(dst, 0)
	} else {
		f := rep.Farm
		dst = append(dst, 1)
		dst = appendUvarint(dst, uint64(int64(f.AreaLEs)))
		dst = appendUvarint(dst, uint64(int64(f.RawAreaLEs)))
		dst = appendUvarint(dst, uint64(int64(f.CritPath)))
		dst = appendUvarint(dst, f.DurationPs)
		dst = appendBool(dst, f.CacheHit)
		dst = appendString(dst, f.HitSource)
		dst = appendString(dst, f.FlowErr)
		dst = appendBool(dst, f.Found)
	}
	if rep.Kind == KindRound {
		dst = appendUvarint(dst, uint64(len(rep.Round)))
		for i := range rep.Round {
			dst = appendResult(dst, &rep.Round[i])
		}
	}
	return dst
}

// decoding ---------------------------------------------------------------

// reader is a bounds-checked cursor over one message. Every method
// reports errors through the sticky err field; callers check it once.
type reader struct {
	buf []byte
	pos int
	err error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) u8() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.buf) {
		r.fail(errShort)
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

func (r *reader) bool() bool { return r.u8() != 0 }

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail(errShort)
		return 0
	}
	r.pos += n
	return v
}

// length reads a count/length prefix and rejects values that could not
// possibly fit in the remaining bytes (each counted element occupies at
// least min bytes), so hostile prefixes never drive allocations.
func (r *reader) length(min int) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if v > uint64((len(r.buf)-r.pos)/min+1) {
		r.fail(fmt.Errorf("proto: length %d exceeds remaining input", v))
		return 0
	}
	return int(v)
}

func (r *reader) string() string { return r.stringAs("") }

// stringAs is string, returning was itself when the bytes spell it: a
// field decoded into again keeps its string instead of copying one.
func (r *reader) stringAs(was string) string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.buf)-r.pos) {
		r.fail(errShort)
		return ""
	}
	b := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	if string(b) == was {
		return was
	}
	return string(b)
}

// vec decodes a vector into was's storage when it has the room (see
// bits.Reuse; was may be nil), else into a new one.
func (r *reader) vec(was *bits.Vector) *bits.Vector {
	w := r.uvarint()
	if r.err != nil {
		return nil
	}
	if w == 0 {
		return nil
	}
	n := (int64(w) + 7) / 8
	if w > uint64(MaxFrame)*8 || n > int64(len(r.buf)-r.pos) {
		r.fail(errShort)
		return nil
	}
	v := bits.Reuse(was, int(w)).SetBytesLE(r.buf[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return v
}

// vecNonNil is vec for positions where the protocol requires a value.
func (r *reader) vecNonNil(was *bits.Vector) *bits.Vector {
	v := r.vec(was)
	if v == nil && r.err == nil {
		r.fail(errors.New("proto: missing vector"))
	}
	return v
}

func (r *reader) state() []uint64 {
	if !r.bool() {
		return nil
	}
	n := r.length(8)
	if r.err != nil || n*8 > len(r.buf)-r.pos {
		r.fail(errShort)
		return nil
	}
	img := make([]uint64, n)
	for i := range img {
		img[i] = binary.LittleEndian.Uint64(r.buf[r.pos:])
		r.pos += 8
	}
	return img
}

func (r *reader) params() map[string]*bits.Vector {
	n := r.length(2)
	if r.err != nil || n == 0 {
		return nil
	}
	m := make(map[string]*bits.Vector, n)
	for i := 0; i < n && r.err == nil; i++ {
		name := r.string()
		m[name] = r.vecNonNil(nil)
	}
	if r.err != nil {
		return nil
	}
	return m
}

func (r *reader) header() Kind {
	v := r.u8()
	if r.err == nil && v != Version {
		r.fail(fmt.Errorf("proto: unsupported version %d", v))
		return 0
	}
	k := Kind(r.u8())
	if r.err == nil && (k == 0 || k >= kindMax) {
		r.fail(fmt.Errorf("proto: unknown message kind %d", k))
		return 0
	}
	return k
}

// finish rejects trailing garbage so decode(encode(m)) is exact.
func (r *reader) finish() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.buf) {
		return fmt.Errorf("proto: %d trailing bytes", len(r.buf)-r.pos)
	}
	return nil
}

// DecodeRequest parses one request message. Malformed input yields an
// error, never a panic, and allocations are bounded by len(data).
func DecodeRequest(data []byte) (*Request, error) {
	req := &Request{}
	if err := DecodeRequestInto(data, req); err != nil {
		return nil, err
	}
	return req, nil
}

// DecodeRequestInto is DecodeRequest into req (overwriting it), reusing
// its round fields: their backing arrays, and each input's name and
// vector where the one decoded into its place before has the room. A
// serving loop that decodes same-shape rounds into one Request stops
// allocating; what it decoded holds until the next decode into the same
// Request, which overwrites the vectors in place. On error req is
// unspecified.
func DecodeRequestInto(data []byte, req *Request) error {
	r := &reader{buf: data}
	inputs, members := req.Inputs[:0], req.Members[:0]
	*req = Request{Kind: r.header()}
	req.Engine = uint32(r.uvarint())
	req.Now = r.uvarint()
	req.VNow = r.uvarint()
	switch req.Kind {
	case KindSpawn:
		req.Path = r.string()
		req.Source = r.string()
		req.Params = r.params()
		req.Eager = r.bool()
		req.JIT = r.bool()
		req.Session = uint32(r.uvarint())
	case KindRead:
		req.Var = r.string()
		req.Val = r.vecNonNil(nil)
	case KindSetState:
		req.State = r.state()
	case KindSessionOpen:
		req.Path = r.string()
		req.Quota = r.uvarint()
		req.Share = r.uvarint()
	case KindSessionClose:
		req.Session = uint32(r.uvarint())
	case KindCompileSubmit:
		f := &FarmJob{}
		f.Key = r.string()
		f.Name = r.string()
		f.Wrapped = r.bool()
		f.SubmitPs = r.uvarint()
		f.BackoffPs = r.uvarint()
		f.Cells = int(int64(r.uvarint()))
		f.FFs = int(int64(r.uvarint()))
		f.MemBits = int(int64(r.uvarint()))
		f.CritPath = int(int64(r.uvarint()))
		req.Farm = f
	case KindCacheFetch, KindCachePut:
		req.Farm = &FarmJob{Key: r.string()}
	case KindRound:
		req.Phase = RoundPhase(r.u8())
		if r.err == nil && (req.Phase == 0 || req.Phase >= roundPhaseMax) {
			r.fail(fmt.Errorf("proto: unknown round phase %d", req.Phase))
		}
		n := r.length(4) // engine, name length, width, a byte of value
		for i := 0; i < n && r.err == nil; i++ {
			var was RoundInput
			if i < cap(inputs) {
				was = inputs[:i+1][i]
			}
			in := RoundInput{Engine: uint32(r.uvarint())}
			in.Var = r.stringAs(was.Var)
			in.Val = r.vecNonNil(was.Val)
			inputs = append(inputs, in)
		}
		n = r.length(1)
		for i := 0; i < n && r.err == nil; i++ {
			members = append(members, uint32(r.uvarint()))
		}
	}
	req.Inputs, req.Members = inputs, members
	return r.finish()
}

// result decodes appendResult's form into res, reusing the backing
// arrays of its slices and each event's name and vector, as
// DecodeRequestInto does an input's.
func (r *reader) result(res *RoundResult) {
	io, evs := res.IO[:0], res.Events[:0]
	*res = RoundResult{Err: r.string(), Loc: engine.Location(r.u8())}
	res.Usage.Ops = r.uvarint()
	res.Usage.Cycles = r.uvarint()
	res.Usage.Msgs = r.uvarint()
	res.Usage.NativeOps = r.uvarint()
	n := r.length(1)
	for i := 0; i < n && r.err == nil; i++ {
		ev := IOEvent{Kind: IOKind(r.u8())}
		switch ev.Kind {
		case IODisplay:
			ev.Text = r.string()
			ev.Newline = r.bool()
		case IOFinish:
			ev.Code = int(int64(r.uvarint()))
		default:
			r.fail(fmt.Errorf("proto: unknown IO event kind %d", ev.Kind))
		}
		io = append(io, ev)
	}
	res.Ran = r.bool()
	n = r.length(2)
	for i := 0; i < n && r.err == nil; i++ {
		var was engine.Event
		if i < cap(evs) {
			was = evs[:i+1][i]
		}
		ev := engine.Event{Var: r.stringAs(was.Var)}
		ev.Val = r.vecNonNil(was.Val)
		evs = append(evs, ev)
	}
	res.IO, res.Events = io, evs
}

// DecodeReply parses one reply message into rep (overwriting it),
// reusing its events and round results as DecodeRequestInto reuses a
// request's inputs: what it decoded holds until the next decode into the
// same Reply.
func DecodeReply(data []byte, rep *Reply) error {
	r := &reader{buf: data}
	round := rep.Round[:0]
	env := RoundResult{IO: rep.IO, Events: rep.Events}
	*rep = Reply{Kind: r.header()}
	rep.Engine = uint32(r.uvarint())
	r.result(&env)
	rep.Err, rep.Loc, rep.Usage, rep.IO, rep.Bool, rep.Events = env.Err, env.Loc, env.Usage, env.IO, env.Ran, env.Events
	rep.State = r.state()
	rep.Epoch = uint32(r.uvarint())
	if r.bool() {
		f := &FarmResult{}
		f.AreaLEs = int(int64(r.uvarint()))
		f.RawAreaLEs = int(int64(r.uvarint()))
		f.CritPath = int(int64(r.uvarint()))
		f.DurationPs = r.uvarint()
		f.CacheHit = r.bool()
		f.HitSource = r.string()
		f.FlowErr = r.string()
		f.Found = r.bool()
		rep.Farm = f
	}
	if rep.Kind == KindRound {
		n := r.length(9) // an empty result's fixed fields
		for i := 0; i < n && r.err == nil; i++ {
			if i < cap(round) {
				round = round[:i+1]
			} else {
				round = append(round, RoundResult{})
			}
			r.result(&round[i])
		}
	}
	rep.Round = round
	return r.finish()
}

// framing ----------------------------------------------------------------

// AppendFrame appends msg to dst as one length-prefixed frame
// (little-endian u32 length, then the payload). enc — EncodeRequest or
// EncodeReply — encodes the payload in place behind the reserved
// length, so it is never copied. A payload over MaxFrame fails with
// ErrFrameTooLarge and leaves dst's length as it was.
func AppendFrame[M any](dst []byte, enc func([]byte, M) []byte, msg M) ([]byte, error) {
	start := len(dst)
	dst = enc(append(dst, 0, 0, 0, 0), msg)
	n := len(dst) - start - 4
	if n > MaxFrame {
		return dst[:start], ErrFrameTooLarge
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(n))
	return dst, nil
}

// ReadFrame reads one length-prefixed frame from r, reusing buf when it
// has capacity. It returns the payload (valid until the next reuse of
// buf) or an error; oversized frames fail without being read.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}
