package wire

import (
	"encoding/binary"
	"math"
	"testing"
	"time"

	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/timeseries"
)

// FuzzWireDecode is the hostile-input gate: whatever bytes arrive,
// DecodeInto must either decode a frame or return a typed error — it
// must never panic, never over-read, and a frame it does accept must
// re-encode to the same items: every record's vehicle, UnixNano and
// value bits, every event's vehicle, UnixNano, type, DTC and note.
// Seeds cover a valid multi-item frame, each corruption class from the
// unit tests, and records carrying the non-finite and edge values the
// wire passes through bit-exact (quiet and payload NaNs, signalling-NaN
// bits, ±Inf, −0, the smallest denormal).
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
	// Values the ingest path does not examine today: the wire must carry
	// them bit for bit.
	edge := []uint64{
		0x7ff8000000000000, // quiet NaN
		0x7ff800000000beef, // NaN with a payload
		0x7ff0000000000001, // signalling-NaN bits
		0x7ff0000000000000, // +Inf
		0xfff0000000000000, // −Inf
		0x8000000000000000, // −0
		0x0000000000000001, // smallest denormal
	}
	var edgeRecs [2]timeseries.Record
	for i := range edgeRecs {
		edgeRecs[i] = timeseries.Record{VehicleID: "veh-edge", Time: recs[0].Time.Add(time.Duration(i) * time.Minute)}
		for p := range edgeRecs[i].Values {
			edgeRecs[i].Values[p] = math.Float64frombits(edge[(i*len(edgeRecs[i].Values)+p)%len(edge)])
		}
	}
	var eenc Encoder
	eenc.Record(&edgeRecs[0])
	eenc.Record(&edgeRecs[1])
	eenc.End()
	if eenc.Err() != nil {
		f.Fatal(eenc.Err())
	}
	var edgeBatch Batch
	if _, err := new(Decoder).DecodeInto(eenc.Bytes(), &edgeBatch); err != nil {
		f.Fatal(err)
	}
	for i := range edgeRecs {
		for p, v := range edgeRecs[i].Values {
			if got := math.Float64bits(edgeBatch.Records[i].Values[p]); got != math.Float64bits(v) {
				f.Fatalf("record %d value %d: decoded bits %#x, sent %#x", i, p, got, math.Float64bits(v))
			}
		}
	}
	f.Add(append([]byte(nil), eenc.Bytes()...))

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
		for i := range b.Records {
			enc.Record(&b.Records[i])
		}
		for i := range b.Events {
			enc.Event(&b.Events[i])
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
		for i := range b.Records {
			r, r2 := &b.Records[i], &b2.Records[i]
			if r.VehicleID != r2.VehicleID || r.Time.UnixNano() != r2.Time.UnixNano() {
				t.Fatalf("round trip changed record %d: %q@%d -> %q@%d",
					i, r.VehicleID, r.Time.UnixNano(), r2.VehicleID, r2.Time.UnixNano())
			}
			for p := range r.Values {
				if math.Float64bits(r.Values[p]) != math.Float64bits(r2.Values[p]) {
					t.Fatalf("round trip changed record %d value %d: %#x -> %#x",
						i, p, math.Float64bits(r.Values[p]), math.Float64bits(r2.Values[p]))
				}
			}
		}
		for i := range b.Events {
			ev, ev2 := &b.Events[i], &b2.Events[i]
			if ev.VehicleID != ev2.VehicleID || ev.Time.UnixNano() != ev2.Time.UnixNano() ||
				ev.Type != ev2.Type || ev.Note != ev2.Note ||
				(ev.DTC == nil) != (ev2.DTC == nil) || (ev.DTC != nil && *ev.DTC != *ev2.DTC) {
				t.Fatalf("round trip changed event %d: %+v -> %+v", i, *ev, *ev2)
			}
		}
	})

	// Compile-time-ish guard: the fuzz target assumes records carry
	// exactly NumPIDs values.
	if obd.NumPIDs <= 0 {
		f.Fatal("obd.NumPIDs must be positive")
	}
}
