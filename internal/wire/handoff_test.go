package wire

import (
	"bytes"
	"errors"
	"testing"
)

// TestHandoffRoundTrip pins the KindHandoff frame contract: the payload
// reaches the sink byte-for-byte, interleaves freely with telemetry
// frames on every decode path, and a decoder without a sink refuses the
// frame instead of swallowing state.
func TestHandoffRoundTrip(t *testing.T) {
	state := []byte("NVCHKPT-style opaque vehicle state \x00\x01\xfe\xff")
	frame, err := AppendHandoff(nil, state)
	if err != nil {
		t.Fatal(err)
	}

	// Single-frame decode.
	var got [][]byte
	dec := Decoder{HandoffSink: func(s []byte) error {
		got = append(got, append([]byte(nil), s...))
		return nil
	}}
	var b Batch
	n, err := dec.DecodeInto(frame, &b)
	if err != nil || n != len(frame) {
		t.Fatalf("DecodeInto = %d, %v, want %d bytes consumed", n, err, len(frame))
	}
	if len(got) != 1 || !bytes.Equal(got[0], state) {
		t.Fatalf("sink saw %q, want %q", got, state)
	}
	if b.Len() != 0 {
		t.Fatalf("handoff frame leaked %d items into the batch", b.Len())
	}

	// Interleaved with telemetry on the streaming path: handoff frames
	// pass through the sink while record frames still decode around
	// them, in order.
	recs, evs := testStream(64, 3)
	stream, frames, err := EncodeStream(nil, recs[:32], evs[:1], 16)
	if err != nil {
		t.Fatal(err)
	}
	if stream, err = AppendHandoff(stream, state); err != nil {
		t.Fatal(err)
	}
	tail, tailFrames, err := EncodeStream(nil, recs[32:], nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	stream = append(stream, tail...)

	got = nil
	var decoded int
	nframes, err := dec.DecodeStream(bytes.NewReader(stream), SinkFunc(func(b *Batch) error {
		decoded += len(b.Records)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if nframes != frames+1+tailFrames {
		t.Fatalf("decoded %d frames, want %d", nframes, frames+1+tailFrames)
	}
	if decoded != len(recs) || len(got) != 1 || !bytes.Equal(got[0], state) {
		t.Fatalf("interleaved stream: %d records, %d handoffs", decoded, len(got))
	}

	// An empty state is a legal frame (the codec, not the wire, decides
	// what a valid vehicle state is).
	empty, err := AppendHandoff(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got = nil
	if _, err := decodeFrames(&dec, empty, &b); err != nil || len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("empty handoff: %v, sink saw %q", err, got)
	}
}

// TestHandoffRefusals pins the failure paths: nil sink, sink error
// propagation, CRC corruption, and the frame size bound.
func TestHandoffRefusals(t *testing.T) {
	state := []byte("some vehicle state")
	frame, err := AppendHandoff(nil, state)
	if err != nil {
		t.Fatal(err)
	}

	// A decoder without a HandoffSink must refuse the frame — a plain
	// telemetry endpoint cannot be tricked into accepting state.
	var plain Decoder
	var b Batch
	if _, err := plain.DecodeInto(frame, &b); !errors.Is(err, ErrBadKind) {
		t.Fatalf("nil-sink decode = %v, want ErrBadKind", err)
	}

	// Sink errors surface from the decode call.
	boom := errors.New("adopt failed")
	dec := Decoder{HandoffSink: func([]byte) error { return boom }}
	if _, err := dec.DecodeInto(frame, &b); !errors.Is(err, boom) {
		t.Fatalf("sink error = %v, want %v", err, boom)
	}

	// Corruption is caught by the CRC before the sink ever runs.
	corrupt := append([]byte(nil), frame...)
	corrupt[HeaderSize] ^= 0x01
	ran := false
	dec = Decoder{HandoffSink: func([]byte) error { ran = true; return nil }}
	if _, err := dec.DecodeInto(corrupt, &b); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt handoff = %v, want ErrCorrupt", err)
	}
	if ran {
		t.Fatal("sink ran on a corrupt frame")
	}

	// Oversized states are refused at encode time.
	if _, err := AppendHandoff(nil, make([]byte, DefaultMaxFrameBytes+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized state = %v, want ErrFrameTooLarge", err)
	}
}
