package server

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestBinaryRequestRoundTrip is a property test over the request codec:
// random IDs (full int64 range), batches (full int32 range), model names
// and session keys up to the wire limit, deadlines over the full uint32
// range and the trace flag — all together in one frame — must survive
// encode → decode exactly.
func TestBinaryRequestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var buf []byte
	for i := 0; i < 2000; i++ {
		in := Request{
			ID:         rng.Int63() - rng.Int63(),
			Batch:      int(int32(rng.Uint32())),
			Model:      strings.Repeat("m", 1+rng.Intn(255)),
			Trace:      rng.Intn(2) == 1,
			Session:    strings.Repeat("s", rng.Intn(256)),
			DeadlineMS: int64(rng.Uint32()),
		}
		var err error
		buf, err = AppendRequestFrame(buf[:0], in)
		if err != nil {
			t.Fatalf("encode %+v: %v", in, err)
		}
		if n := binary.BigEndian.Uint32(buf); int(n) != len(buf)-4 {
			t.Fatalf("length prefix %d for a %d-byte payload", n, len(buf)-4)
		}
		rv, err := DecodeRequestView(buf[4:])
		if err != nil {
			t.Fatalf("decode %+v: %v", in, err)
		}
		out := Request{ID: rv.ID, Batch: rv.Batch, Model: string(rv.Model), Trace: rv.Traced,
			Session: string(rv.Session), DeadlineMS: rv.DeadlineMS}
		if out != in {
			t.Fatalf("round trip: got %+v, want %+v", out, in)
		}
	}
}

// TestBinaryReplyRoundTrip is the reply-side property test, covering
// special floats, the trace flag with its wait, and error strings.
func TestBinaryReplyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var buf []byte
	for i := 0; i < 2000; i++ {
		in := Reply{
			ID:        rng.Int63() - rng.Int63(),
			ServiceMS: math.Float64frombits(rng.Uint64()),
			Err:       strings.Repeat("e", rng.Intn(512)),
			Traced:    rng.Intn(2) == 1,
			WaitNS:    rng.Int63() - rng.Int63(),
		}
		if math.IsNaN(in.ServiceMS) {
			in.ServiceMS = 0 // NaN != NaN breaks the equality check below
		}
		var err error
		buf, err = AppendReplyFrame(buf[:0], in)
		if err != nil {
			t.Fatalf("encode %+v: %v", in, err)
		}
		out, err := DecodeReplyFrame(buf[4:])
		if err != nil {
			t.Fatalf("decode %+v: %v", in, err)
		}
		if out != in {
			t.Fatalf("round trip: %+v != %+v", out, in)
		}
	}
}

// TestBinaryCodecRejectsMalformed: wrong kind bytes, unknown flag bits,
// truncations, length mismatches, and over-limit or missing fields must
// all error instead of misparsing.
func TestBinaryCodecRejectsMalformed(t *testing.T) {
	if _, err := AppendRequestFrame(nil, Request{Model: strings.Repeat("x", 256)}); err == nil {
		t.Fatal("oversized model must fail to encode")
	}
	if _, err := AppendRequestFrame(nil, Request{Batch: 1}); err == nil {
		t.Fatal("a request without a model must fail to encode")
	}
	if _, err := AppendRequestFrame(nil, Request{Model: "NCF", Batch: math.MaxInt32 + 1}); err == nil {
		t.Fatal("batch outside int32 must fail to encode")
	}
	if _, err := AppendRequestFrame(nil, Request{Model: "NCF", DeadlineMS: -1}); err == nil {
		t.Fatal("negative deadline must fail to encode")
	}
	if _, err := AppendReplyFrame(nil, Reply{Err: strings.Repeat("x", math.MaxUint16+1)}); err == nil {
		t.Fatal("oversized error must fail to encode")
	}
	req, err := AppendRequestFrame(nil, Request{ID: 1, Model: "NCF", Batch: 2, Session: "s"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AppendReplyFrame(nil, Reply{ID: 1, ServiceMS: 3, Err: "boom"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRequestView(rep[4:]); err == nil {
		t.Fatal("request decoder must reject a reply frame")
	}
	if _, err := DecodeReplyFrame(req[4:]); err == nil {
		t.Fatal("reply decoder must reject a request frame")
	}
	// with returns a copy of the payload p with byte i set to b.
	with := func(p []byte, i int, b byte) []byte {
		q := append([]byte{}, p...)
		q[i] = b
		return q
	}
	pad := func(p []byte) []byte { return append(append([]byte{}, p...), 0) }
	badReqs := [][]byte{
		nil, {frameRequest},
		req[4 : len(req)-1], pad(req[4:]),
		with(req[4:], 17, 0x02),      // unknown flag bit
		with(req[4:], 18, 0),         // empty model
		with(req[4:], 18, 200),       // model runs past the frame
		with(req[4:], len(req)-6, 9), // session runs past the frame
	}
	for kind := 0; kind < 256; kind++ {
		if kind != frameRequest {
			badReqs = append(badReqs, with(req[4:], 0, byte(kind)))
		}
	}
	for _, p := range badReqs {
		if _, err := DecodeRequestView(p); err == nil {
			t.Fatalf("malformed request %v must fail", p)
		}
	}
	badReps := [][]byte{
		nil, {frameReply},
		rep[4 : len(rep)-1], pad(rep[4:]),
		with(rep[4:], 17, 0x80), // unknown flag bit
		with(rep[4:], 27, 5),    // error runs past the frame
	}
	for kind := 0; kind < 256; kind++ {
		if kind != frameReply {
			badReps = append(badReps, with(rep[4:], 0, byte(kind)))
		}
	}
	for _, p := range badReps {
		if _, err := DecodeReplyFrame(p); err == nil {
			t.Fatalf("malformed reply %v must fail", p)
		}
	}
	// The unmutated frames still decode: every rejection above came from
	// its one mutated byte.
	if _, err := DecodeRequestView(req[4:]); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeReplyFrame(rep[4:]); err != nil {
		t.Fatal(err)
	}
}
