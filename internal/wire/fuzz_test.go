package wire

import (
	"encoding/binary"
	"testing"

	"github.com/navarchos/pdm/internal/obd"
)

// FuzzWireDecode is the hostile-input gate: whatever bytes arrive,
// DecodeInto must either decode a frame or return a typed error — it
// must never panic, never over-read, and a frame it does accept must
// re-encode to semantically identical items. Seeds cover a valid
// multi-item frame plus each corruption class from the unit tests.
//
// Reuse must be outcome-neutral too, since navarchos-serve pools its
// decoders: every input also goes through DecodeStream on a decoder
// that has already run a valid multi-frame stream, which must fail and
// deliver exactly as a fresh decoder does, and then decode that valid
// stream again unchanged — the input left nothing behind in the
// decoder's buffers, batch or intern table.
func FuzzWireDecode(f *testing.F) {
	recs, evs := testStream(25, 3)
	valid, _, err := EncodeStream(nil, recs, evs, 1024)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add(valid[:HeaderSize])
	f.Add(valid[:len(valid)-2])
	flipped := append([]byte(nil), valid...)
	flipped[HeaderSize+5] ^= 0xff
	f.Add(flipped)
	// A frame using the trace-context extension, so the corpus mutates
	// the new item surface too.
	var tenc Encoder
	tenc.Begin()
	tenc.TraceContext(0xfeedface)
	for i := range recs[:4] {
		tenc.Record(&recs[i])
	}
	tenc.End()
	if tenc.Err() != nil {
		f.Fatal(tenc.Err())
	}
	f.Add(append([]byte(nil), tenc.Bytes()...))
	// Sound version, kind and CRC fields behind a garbage magic, claiming
	// a 16 MiB payload that never arrives.
	garbage := []byte{'n', 'o', 'p', 'e', Version, KindBatch}
	garbage = binary.LittleEndian.AppendUint32(garbage, 16<<20)
	garbage = binary.LittleEndian.AppendUint32(garbage, 0)
	f.Add(append(garbage, "short"...))

	multi, _, err := EncodeStream(nil, recs, evs, 7)
	if err != nil {
		f.Fatal(err)
	}
	multiWant, err := transcript(&Decoder{MaxFrameBytes: 1 << 20}, multi)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := transcript(&Decoder{MaxFrameBytes: 1 << 20}, data)
		used := Decoder{MaxFrameBytes: 1 << 20}
		if _, err := transcript(&used, multi); err != nil {
			t.Fatal(err)
		}
		if got, err := transcript(&used, data); err != wantErr || got != want {
			t.Fatalf("reused decoder: error %v and %d bytes of items, fresh decoder: %v and %d",
				err, len(got), wantErr, len(want))
		}
		if got, err := transcript(&used, multi); err != nil || got != multiWant {
			t.Fatalf("a valid stream decoded differently after this input (err %v)", err)
		}

		var dec Decoder
		dec.MaxFrameBytes = 1 << 20 // keep hostile length prefixes cheap
		var b Batch
		n, err := dec.DecodeInto(data, &b)
		if err != nil {
			if n != 0 {
				t.Fatalf("decode failed with %v but consumed %d bytes", err, n)
			}
			return
		}
		if n < HeaderSize || n > len(data) {
			t.Fatalf("decode consumed %d bytes of %d", n, len(data))
		}
		// Accepted frames must round-trip: re-encode the decoded items
		// and decode again to the same contents.
		var enc Encoder
		enc.Begin()
		enc.TraceContext(b.TraceID)
		ri, ei := 0, 0
		for ri < len(b.Records) {
			enc.Record(&b.Records[ri])
			ri++
		}
		for ei < len(b.Events) {
			enc.Event(&b.Events[ei])
			ei++
		}
		enc.End()
		if enc.Err() != nil {
			t.Fatalf("re-encode of an accepted frame failed: %v", enc.Err())
		}
		var b2 Batch
		if _, err := dec.DecodeInto(enc.Bytes(), &b2); err != nil {
			t.Fatalf("re-encoded frame did not decode: %v", err)
		}
		if len(b2.Records) != len(b.Records) || len(b2.Events) != len(b.Events) {
			t.Fatalf("round trip changed item counts: %d/%d -> %d/%d",
				len(b.Records), len(b.Events), len(b2.Records), len(b2.Events))
		}
		if b2.TraceID != b.TraceID {
			t.Fatalf("round trip changed trace ID: %#x -> %#x", b.TraceID, b2.TraceID)
		}
	})

	// Compile-time-ish guard: the fuzz target assumes records carry
	// exactly NumPIDs values.
	if obd.NumPIDs <= 0 {
		f.Fatal("obd.NumPIDs must be positive")
	}
}
