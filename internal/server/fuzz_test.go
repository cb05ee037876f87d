package server

import (
	"bytes"
	"testing"
)

// The codec's two decoders face bytes from the network. Both fuzz
// targets check the same properties on arbitrary payloads: decoding
// never panics and never reaches past the payload (it is handed a
// buffer with junk after it), and any payload that decodes re-encodes
// to exactly the same bytes — lengths are exact and unknown flag bits
// are rejected, so every field has one encoding. The seed corpus lives
// in testdata/fuzz and runs as a regression test under plain go test.

// withJunk returns p in a buffer whose capacity runs past len(p) into
// junk bytes, so a decoder that slices beyond the payload misreads the
// junk instead of panicking.
func withJunk(p []byte) []byte {
	buf := append(append(make([]byte, 0, len(p)+64), p...), bytes.Repeat([]byte{0xA5}, 64)...)
	return buf[:len(p)]
}

// within reports whether sub, a subslice of p, ends inside len(p).
func within(p, sub []byte) bool {
	start := cap(p) - cap(sub)
	return start >= 0 && start+len(sub) <= len(p)
}

func FuzzDecodeRequestView(f *testing.F) {
	for _, req := range []Request{
		{ID: 1, Model: "NCF", Batch: 8},
		{ID: -7, Model: "MT-WND", Batch: 1000, Trace: true, Session: "user-9", DeadlineMS: 1500},
	} {
		frame, err := AppendRequestFrame(nil, req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		in := withJunk(p)
		rv, err := DecodeRequestView(in)
		if err != nil {
			return
		}
		if !within(in, rv.Model) || !within(in, rv.Session) {
			t.Fatalf("view reaches past the %d-byte payload: %+v", len(p), rv)
		}
		frame, err := AppendRequestFrame(nil, Request{
			ID: rv.ID, Model: string(rv.Model), Batch: rv.Batch, Trace: rv.Traced,
			Session: string(rv.Session), DeadlineMS: rv.DeadlineMS,
		})
		if err != nil {
			t.Fatalf("decoded %+v does not re-encode: %v", rv, err)
		}
		if !bytes.Equal(frame[4:], p) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", frame[4:], p)
		}
	})
}

func FuzzDecodeReplyFrame(f *testing.F) {
	for _, rep := range []Reply{
		{ID: 1, ServiceMS: 1.348},
		{ID: -3, ServiceMS: 0.5, Err: "instance serves model NCF, not RM2", Traced: true, WaitNS: 12345},
	} {
		frame, err := AppendReplyFrame(nil, rep)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		rep, err := DecodeReplyFrame(withJunk(p))
		if err != nil {
			return
		}
		frame, err := AppendReplyFrame(nil, rep)
		if err != nil {
			t.Fatalf("decoded %+v does not re-encode: %v", rep, err)
		}
		if !bytes.Equal(frame[4:], p) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", frame[4:], p)
		}
	})
}
