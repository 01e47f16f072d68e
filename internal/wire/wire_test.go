package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/timeseries"
)

// testStream builds a deterministic mixed stream: nrecs records across
// nveh vehicles (one per minute, round-robin) and one event per 97
// records, with awkward float values (negative zero, tiny subnormals,
// NaN payloads are excluded — records never carry NaN) to exercise
// bit-exactness.
func testStream(nrecs, nveh int) ([]timeseries.Record, []obd.Event) {
	base := time.Date(2023, 3, 1, 8, 0, 0, 0, time.UTC)
	recs := make([]timeseries.Record, 0, nrecs)
	var evs []obd.Event
	x := uint64(12345)
	next := func() float64 {
		x = x*6364136223846793005 + 1442695040888963407
		return float64(int64(x>>12)) / float64(1<<20)
	}
	for i := 0; i < nrecs; i++ {
		var r timeseries.Record
		r.VehicleID = vehID(i % nveh)
		r.Time = base.Add(time.Duration(i) * time.Minute)
		for p := 0; p < int(obd.NumPIDs); p++ {
			r.Values[p] = next()
		}
		if i%113 == 0 {
			r.Values[0] = math.Copysign(0, -1) // -0.0 must round-trip
		}
		recs = append(recs, r)
		if i%97 == 42 {
			ev := obd.Event{
				VehicleID: r.VehicleID,
				Time:      r.Time.Add(30 * time.Second),
				Type:      obd.EventType(i % 3),
				Note:      "note-" + r.VehicleID,
			}
			if ev.Type == obd.EventDTC {
				ev.DTC = &obd.DTC{Code: "P0128", Kind: obd.DTCStored}
			}
			evs = append(evs, ev)
		}
	}
	return recs, evs
}

func vehID(i int) string {
	return "veh-" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
}

// decodeFrames decodes every frame in buf into b with DecodeInto and
// returns the frame count; a trailing partial frame is an error.
func decodeFrames(dec *Decoder, buf []byte, b *Batch) (int, error) {
	frames := 0
	for len(buf) > 0 {
		n, err := dec.DecodeInto(buf, b)
		if err != nil {
			return frames, err
		}
		buf = buf[n:]
		frames++
	}
	return frames, nil
}

// TestRoundTrip pins the core format contract: encode a mixed stream,
// decode it, and require Float64bits-identical records and structurally
// identical events, in order.
func TestRoundTrip(t *testing.T) {
	recs, evs := testStream(500, 7)
	frames, nframes, err := EncodeStream(nil, recs, evs, 64)
	if err != nil {
		t.Fatal(err)
	}
	if want := (len(recs) + len(evs) + 63) / 64; nframes != want {
		t.Fatalf("EncodeStream produced %d frames, want %d", nframes, want)
	}

	var dec Decoder
	var b Batch
	got, err := decodeFrames(&dec, frames, &b)
	if err != nil {
		t.Fatal(err)
	}
	if got != nframes {
		t.Fatalf("decoded %d frames, want %d", got, nframes)
	}
	if len(b.Records) != len(recs) || len(b.Events) != len(evs) {
		t.Fatalf("decoded %d records / %d events, want %d / %d",
			len(b.Records), len(b.Events), len(recs), len(evs))
	}
	for i := range recs {
		want, got := &recs[i], &b.Records[i]
		if got.VehicleID != want.VehicleID || !got.Time.Equal(want.Time) {
			t.Fatalf("record %d: id/time mismatch: got %s@%v want %s@%v",
				i, got.VehicleID, got.Time, want.VehicleID, want.Time)
		}
		for p := range want.Values {
			if math.Float64bits(got.Values[p]) != math.Float64bits(want.Values[p]) {
				t.Fatalf("record %d value %d: bits %x != %x", i, p,
					math.Float64bits(got.Values[p]), math.Float64bits(want.Values[p]))
			}
		}
	}
	for i := range evs {
		want, got := evs[i], b.Events[i]
		if got.VehicleID != want.VehicleID || !got.Time.Equal(want.Time) ||
			got.Type != want.Type || got.Note != want.Note {
			t.Fatalf("event %d mismatch: got %+v want %+v", i, got, want)
		}
		if (got.DTC == nil) != (want.DTC == nil) {
			t.Fatalf("event %d DTC presence mismatch", i)
		}
		if want.DTC != nil && *got.DTC != *want.DTC {
			t.Fatalf("event %d DTC mismatch: got %+v want %+v", i, *got.DTC, *want.DTC)
		}
	}
}

// TestDecodeIntern pins the interning contract behind the zero-alloc
// guarantee: a returning vehicle's decoded ID must be the same string
// header, not a fresh allocation.
func TestDecodeIntern(t *testing.T) {
	recs, _ := testStream(10, 2)
	frames, _, err := EncodeStream(nil, recs, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	var dec Decoder
	var b Batch
	if _, err := decodeFrames(&dec, frames, &b); err != nil {
		t.Fatal(err)
	}
	seen := map[string]*byte{}
	for i := range b.Records {
		id := b.Records[i].VehicleID
		ptr := unsafe.StringData(id)
		if prev, ok := seen[id]; ok && prev != ptr {
			t.Fatalf("vehicle ID %q decoded to two different string allocations", id)
		}
		seen[id] = ptr
	}
}

// TestDecodeInternBudget pins the table's byte bound: a stream of
// unique maximum-length IDs decodes correctly and stops growing the
// table at maxInternBytes, far short of maxIntern entries.
func TestDecodeInternBudget(t *testing.T) {
	n := 2 * maxInternBytes / maxIDLen
	var enc Encoder
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%0*d", maxIDLen, i)
		enc.Record(&timeseries.Record{VehicleID: id, Time: time.Unix(int64(i), 0)})
	}
	enc.End()
	if enc.Err() != nil {
		t.Fatal(enc.Err())
	}
	var dec Decoder
	var b Batch
	if _, err := decodeFrames(&dec, enc.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Records) != n || b.Records[n-1].VehicleID != fmt.Sprintf("%0*d", maxIDLen, n-1) {
		t.Fatalf("decoded %d records, want %d with their IDs intact", len(b.Records), n)
	}
	if dec.internBytes > maxInternBytes || len(dec.intern) != maxInternBytes/maxIDLen {
		t.Fatalf("intern table holds %d IDs / %d bytes, want %d / at most %d",
			len(dec.intern), dec.internBytes, maxInternBytes/maxIDLen, maxInternBytes)
	}
}

// TestDecodeZeroAlloc is the steady-state allocation oracle: after the
// first frame establishes batch capacity and the intern table, decoding
// a frame of records costs zero allocations per record.
func TestDecodeZeroAlloc(t *testing.T) {
	recs, _ := testStream(256, 4)
	frames, _, err := EncodeStream(nil, recs, nil, 256)
	if err != nil {
		t.Fatal(err)
	}
	var dec Decoder
	var b Batch
	// Warm up: capacity + intern table.
	if _, err := decodeFrames(&dec, frames, &b); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		b.Reset()
		if _, err := dec.DecodeInto(frames, &b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state decode allocated %.1f times per frame of %d records, want 0",
			allocs, len(recs))
	}
}

// TestDecodeStream feeds the same frames through the io.Reader path and
// requires identical batch boundaries and contents.
func TestDecodeStream(t *testing.T) {
	recs, evs := testStream(300, 5)
	frames, nframes, err := EncodeStream(nil, recs, evs, 50)
	if err != nil {
		t.Fatal(err)
	}
	var dec Decoder
	var got Batch
	calls := 0
	n, err := dec.DecodeStream(bytes.NewReader(frames), SinkFunc(func(b *Batch) error {
		calls++
		got.Records = append(got.Records, b.Records...)
		got.Events = append(got.Events, b.Events...)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if n != nframes || calls != nframes {
		t.Fatalf("stream decoded %d frames with %d sink calls, want %d", n, calls, nframes)
	}
	if len(got.Records) != len(recs) || len(got.Events) != len(evs) {
		t.Fatalf("stream decoded %d/%d items, want %d/%d",
			len(got.Records), len(got.Events), len(recs), len(evs))
	}
	// A stream cut mid-frame must surface as ErrTruncated.
	if _, err := dec.DecodeStream(bytes.NewReader(frames[:len(frames)-3]), nopSink{}); err != ErrTruncated {
		t.Fatalf("truncated stream: got %v, want ErrTruncated", err)
	}
}

type nopSink struct{}

func (nopSink) ConsumeBatch(*Batch) error { return nil }

// transcript runs DecodeStream over data and writes down everything the
// sink was handed — frame boundaries, trace IDs, every field of every
// item with floats as bit patterns — so two decodes delivered the same
// thing exactly when their transcripts and errors are equal.
func transcript(d *Decoder, data []byte) (string, error) {
	var sb strings.Builder
	_, err := d.DecodeStream(bytes.NewReader(data), SinkFunc(func(b *Batch) error {
		fmt.Fprintf(&sb, "frame trace=%x\n", b.TraceID)
		for i := range b.Records {
			r := &b.Records[i]
			fmt.Fprintf(&sb, "r %q %d", r.VehicleID, r.Time.UnixNano())
			for _, v := range r.Values {
				fmt.Fprintf(&sb, " %x", math.Float64bits(v))
			}
			sb.WriteByte('\n')
		}
		for i := range b.Events {
			ev := &b.Events[i]
			fmt.Fprintf(&sb, "e %q %d %d %q", ev.VehicleID, ev.Time.UnixNano(), ev.Type, ev.Note)
			if ev.DTC != nil {
				fmt.Fprintf(&sb, " dtc %q %d", ev.DTC.Code, ev.DTC.Kind)
			}
			sb.WriteByte('\n')
		}
		return nil
	}))
	return sb.String(), err
}

// TestDecodeStreamReuse pins what pooling decoders rests on: a decoder
// that has already run a stream — to the end, into a CRC failure, or
// off the edge of a truncated body — delivers for the next stream
// exactly what a fresh decoder delivers, and fails where it fails.
func TestDecodeStreamReuse(t *testing.T) {
	recsA, evsA := testStream(700, 9)
	streamA, _, err := EncodeStream(nil, recsA, evsA, 128)
	if err != nil {
		t.Fatal(err)
	}
	recsB, evsB := testStream(300, 5) // overlapping IDs, other values
	streamB, _, err := EncodeStream(nil, recsB[40:], evsB, 50)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), streamA...)
	flipped[len(flipped)/2] ^= 0x10

	firsts := map[string][]byte{
		"complete":  streamA,
		"crc flip":  flipped,
		"truncated": streamA[:len(streamA)-len(streamA)/3],
		"garbage":   []byte("definitely not an NVWIRE1 frame"),
	}
	seconds := map[string][]byte{
		"valid":     streamB,
		"truncated": streamB[:len(streamB)-7],
		"empty":     nil,
	}
	for an, a := range firsts {
		for bn, b := range seconds {
			want, wantErr := transcript(new(Decoder), b)
			var used Decoder
			transcript(&used, a) //nolint:errcheck // only its leftovers matter
			got, gotErr := transcript(&used, b)
			if gotErr != wantErr {
				t.Fatalf("%s then %s: reused decoder failed with %v, fresh with %v", an, bn, gotErr, wantErr)
			}
			if got != want {
				t.Fatalf("%s then %s: reused decoder delivered different items than a fresh one", an, bn)
			}
		}
	}
}

// TestDecodeStreamChecksHeaderBeforeAllocating pins the order of
// operations on bytes that are not a frame: the typed header error,
// not ErrTruncated, and no buffer sized from the length they claim.
func TestDecodeStreamChecksHeaderBeforeAllocating(t *testing.T) {
	const claimed = 64 << 20
	header := func(magic string, version, kind byte) []byte {
		h := append([]byte(magic), version, kind)
		h = binary.LittleEndian.AppendUint32(h, claimed)
		h = binary.LittleEndian.AppendUint32(h, 0xdeadbeef)
		return append(h, "short body"...)
	}
	recs, _ := testStream(64, 4)
	valid, _, err := EncodeStream(nil, recs, nil, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"bad magic", header("XXXX", Version, KindBatch), ErrBadMagic},
		{"bad version", header(Magic, 9, KindBatch), ErrBadVersion},
		{"handoff without a sink", header(Magic, Version, KindHandoff), ErrBadKind},
		{"unknown kind", header(Magic, Version, 7), ErrBadKind},
	} {
		// Fresh decoder: the only allocation allowed is the read buffer.
		fresh := Decoder{MaxFrameBytes: claimed}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, err := fresh.DecodeStream(bytes.NewReader(tc.data), nopSink{})
		runtime.ReadMemStats(&m1)
		if err != tc.want {
			t.Fatalf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		if got := m1.TotalAlloc - m0.TotalAlloc; got > 2*streamReadBytes {
			t.Fatalf("%s: refusing the header allocated %d bytes", tc.name, got)
		}
		// Warm decoder: nothing at all, and nothing parked afterwards.
		warm := Decoder{MaxFrameBytes: claimed}
		if _, err := warm.DecodeStream(bytes.NewReader(valid), nopSink{}); err != nil {
			t.Fatal(err)
		}
		kept := cap(warm.payload)
		r := bytes.NewReader(tc.data)
		allocs := testing.AllocsPerRun(20, func() {
			r.Reset(tc.data)
			if _, err := warm.DecodeStream(r, nopSink{}); err != tc.want {
				t.Fatalf("%s: warm decoder got %v, want %v", tc.name, err, tc.want)
			}
		})
		if allocs != 0 || cap(warm.payload) != kept {
			t.Fatalf("%s: warm decoder allocated %.0f times, payload buffer %d -> %d bytes",
				tc.name, allocs, kept, cap(warm.payload))
		}
	}
}

// TestDecodeStreamRetainedBufferBound pins what a decoder holds once
// its stream has ended: a stream of ordinary frames leaves its buffers
// in place for the next one, a frame above maxRetainedFrameBytes gives
// them back, and in both cases the source reader is let go.
func TestDecodeStreamRetainedBufferBound(t *testing.T) {
	recs, _ := testStream(256, 4)
	small, _, err := EncodeStream(nil, recs, nil, 256)
	if err != nil {
		t.Fatal(err)
	}
	nbig := maxRetainedFrameBytes/60 + 1 // a record is at least 60 payload bytes
	bigRecs, _ := testStream(nbig, 4)
	big, nframes, err := EncodeStream(nil, bigRecs, nil, nbig)
	if err != nil || nframes != 1 {
		t.Fatalf("encoding one %d-record frame: %d frames, %v", nbig, nframes, err)
	}

	// source is a reader the test can watch the collector reclaim.
	type source struct{ io.Reader }
	var dec Decoder
	run := func(data []byte) (collected chan struct{}) {
		src := &source{bytes.NewReader(data)}
		collected = make(chan struct{})
		runtime.SetFinalizer(src, func(*source) { close(collected) })
		if _, err := dec.DecodeStream(src, nopSink{}); err != nil {
			t.Fatal(err)
		}
		return collected
	}
	released := func(name string, collected chan struct{}) {
		t.Helper()
		for i := 0; i < 10; i++ {
			runtime.GC()
			select {
			case <-collected:
				return
			case <-time.After(10 * time.Millisecond):
			}
		}
		t.Fatalf("%s: the decoder still references its source reader", name)
	}

	c := run(small)
	if cap(dec.payload) == 0 || cap(dec.batch.Records) < len(recs) {
		t.Fatalf("ordinary stream: buffers not kept (payload %d B, batch %d records)",
			cap(dec.payload), cap(dec.batch.Records))
	}
	released("ordinary stream", c)

	c = run(big)
	if dec.payload != nil || dec.batch.Records != nil || dec.batch.Events != nil {
		t.Fatalf("oversize stream: decoder kept %d payload bytes and %d records of batch",
			cap(dec.payload), cap(dec.batch.Records))
	}
	released("oversize stream", c)

	// And it still works, warm in everything but the released buffers.
	if got, err := transcript(&dec, small); err != nil || got == "" {
		t.Fatalf("decode after release: %v", err)
	}
}

// TestDecodeRejectsCorruption walks the typed-error contract: magic,
// version, kind, CRC, truncation, oversize and structural corruption
// each fail with their error and never panic.
func TestDecodeRejectsCorruption(t *testing.T) {
	recs, evs := testStream(40, 3)
	frame, _, err := EncodeStream(nil, recs, evs, 1024)
	if err != nil {
		t.Fatal(err)
	}
	var dec Decoder
	check := func(name string, buf []byte, want error) {
		t.Helper()
		var b Batch
		if _, err := dec.DecodeInto(buf, &b); err != want {
			t.Fatalf("%s: got %v, want %v", name, err, want)
		}
	}
	corrupt := func(mut func(c []byte)) []byte {
		c := append([]byte(nil), frame...)
		mut(c)
		return c
	}
	check("empty", nil, ErrTruncated)
	check("short header", frame[:HeaderSize-1], ErrTruncated)
	check("bad magic", corrupt(func(c []byte) { c[0] = 'X' }), ErrBadMagic)
	check("bad version", corrupt(func(c []byte) { c[4] = 99 }), ErrBadVersion)
	check("bad kind", corrupt(func(c []byte) { c[5] = 7 }), ErrBadKind)
	check("payload bit flip", corrupt(func(c []byte) { c[HeaderSize+10] ^= 0x40 }), ErrCorrupt)
	check("truncated payload", frame[:len(frame)-1], ErrTruncated)
	check("oversize length", corrupt(func(c []byte) {
		binary.LittleEndian.PutUint32(c[6:], uint32(DefaultMaxFrameBytes+1))
	}), ErrFrameTooLarge)
	// A lying item count with a fixed-up CRC is structural corruption.
	check("bad count", corrupt(func(c []byte) {
		binary.LittleEndian.PutUint32(c[HeaderSize:], 1<<30)
		binary.LittleEndian.PutUint32(c[10:], crc32.Checksum(c[HeaderSize:], castagnoli))
	}), ErrBadFrame)
}

// TestEncoderLimits pins the encoder's sticky error. A string beyond
// the format's limit fails the stream instead of truncating it silently:
// a vehicle ID in Record or Event, a DTC code or a note in Event. So
// does a frame the default decoder would refuse: a payload one byte
// past DefaultMaxFrameBytes, or one record past it through EncodeStream.
// Each failure carries its own message, and no item after it appends a
// byte. A frame whose payload is exactly DefaultMaxFrameBytes encodes
// and decodes.
func TestEncoderLimits(t *testing.T) {
	const id = "veh-00001"
	const item = 1 + 2 + len(id) + 8 + 1 + 8*int(obd.NumPIDs)
	n := (DefaultMaxFrameBytes - 4) / item // 4: the payload's item count
	if 4+n*item != DefaultMaxFrameBytes {
		t.Fatalf("%d-byte records do not fill a frame exactly", item)
	}
	base := time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC)
	recs := make([]timeseries.Record, n+1)
	for i := range recs {
		recs[i] = timeseries.Record{VehicleID: id, Time: base.Add(time.Duration(i) * time.Second)}
	}

	long := strings.Repeat("x", maxIDLen+1)
	tooLong := func(what string) string {
		return fmt.Sprintf("wire: %s of %d bytes exceeds the %d-byte limit", what, maxIDLen+1, maxIDLen)
	}
	// An event with no DTC takes 1+2+len(id)+8+1+1+2 bytes before its
	// note; this one takes a record's bytes plus one.
	pastLimit := obd.Event{VehicleID: id, Time: base, Note: strings.Repeat("n", item+1-(15+len(id)))}
	for _, c := range []struct {
		name string
		feed func(*Encoder)
		want string
	}{
		{"record-vehicle-id", func(e *Encoder) { e.Record(&timeseries.Record{VehicleID: long}) }, tooLong("vehicle ID")},
		{"event-vehicle-id", func(e *Encoder) { e.Event(&obd.Event{VehicleID: long}) }, tooLong("vehicle ID")},
		{"dtc-code", func(e *Encoder) {
			e.Event(&obd.Event{VehicleID: id, Type: obd.EventDTC, DTC: &obd.DTC{Code: long}})
		}, tooLong("DTC code")},
		{"event-note", func(e *Encoder) { e.Event(&obd.Event{VehicleID: id, Note: long}) }, tooLong("event note")},
		{"payload-one-byte-past", func(e *Encoder) {
			for i := range recs[:n-2] { // n-1 with the one ahead of it
				e.Record(&recs[i])
			}
			e.Event(&pastLimit)
		}, fmt.Sprintf("%v: %d-byte frame payload", ErrFrameTooLarge, DefaultMaxFrameBytes+1)},
	} {
		t.Run(c.name, func(t *testing.T) {
			var enc Encoder
			enc.Record(&recs[n]) // a valid item ahead of the failure
			c.feed(&enc)
			if err := enc.Err(); err == nil || err.Error() != c.want {
				t.Fatalf("err %v, want %q", err, c.want)
			}
			size := len(enc.buf)
			enc.Record(&recs[0])
			enc.Event(&obd.Event{VehicleID: id, Time: base})
			enc.TraceContext(1)
			if len(enc.buf) != size {
				t.Errorf("items after the failure appended %d bytes", len(enc.buf)-size)
			}
		})
	}

	full, frames, err := EncodeStream(nil, recs[:n], nil, n)
	if err != nil || frames != 1 || len(full) != HeaderSize+DefaultMaxFrameBytes {
		t.Fatalf("frame at the limit: %d bytes, %d frames, err %v; want %d, 1, nil",
			len(full), frames, err, HeaderSize+DefaultMaxFrameBytes)
	}
	var dec Decoder
	decoded := 0
	if _, err := dec.DecodeStream(bytes.NewReader(full), SinkFunc(func(b *Batch) error {
		decoded += len(b.Records)
		return nil
	})); err != nil || decoded != n {
		t.Fatalf("frame at the limit decoded %d of %d records, err %v", decoded, n, err)
	}
	if _, _, err := EncodeStream(nil, recs, nil, len(recs)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("one record over the limit: err %v, want ErrFrameTooLarge", err)
	}
}

// TestTraceContextRoundTrip pins the trace-context extension item:
// a frame carrying one survives encode→decode with the producer's
// trace ID intact, a frame without one decodes to TraceID 0 (the
// pre-extension format is a strict subset), and TraceContext(0) emits
// nothing so untraced producers keep their byte-identical frames.
func TestTraceContextRoundTrip(t *testing.T) {
	recs, _ := testStream(8, 2)

	var traced Encoder
	traced.Begin()
	traced.TraceContext(0xdeadbeefcafe)
	for i := range recs {
		traced.Record(&recs[i])
	}
	traced.End()
	if traced.Err() != nil {
		t.Fatal(traced.Err())
	}

	var dec Decoder
	var b Batch
	if _, err := dec.DecodeInto(traced.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if b.TraceID != 0xdeadbeefcafe {
		t.Fatalf("decoded TraceID %#x, want %#x", b.TraceID, uint64(0xdeadbeefcafe))
	}
	if len(b.Records) != len(recs) {
		t.Fatalf("trace item displaced records: got %d, want %d", len(b.Records), len(recs))
	}

	// Old-format frames (no trace item) must keep decoding and must not
	// inherit a trace ID from a previously decoded frame.
	var plain Encoder
	plain.Begin()
	for i := range recs {
		plain.Record(&recs[i])
	}
	plain.End()
	b.Reset()
	if _, err := dec.DecodeInto(plain.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if b.TraceID != 0 {
		t.Fatalf("untraced frame decoded to TraceID %#x, want 0", b.TraceID)
	}

	// A zero trace ID is "no context": the encoder emits no item, so the
	// frame is byte-identical to one that never called TraceContext.
	var zero Encoder
	zero.Begin()
	zero.TraceContext(0)
	for i := range recs {
		zero.Record(&recs[i])
	}
	zero.End()
	if !bytes.Equal(zero.Bytes(), plain.Bytes()) {
		t.Fatal("TraceContext(0) changed the encoded frame bytes")
	}
}

// TestCSVDecode pins the CSV compat path: schema-checked streaming
// decode in batches through the same FrameSink as the binary path.
func TestCSVDecode(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("vehicle,time,rpm,speed,coolantTemp,intakeTemp,mapIntake,MAFairFlowRate\n")
	sb.WriteString("veh-01,2023-03-01T08:00:00Z,1500.5,62.25,88,21,101,14.5\n")
	sb.WriteString("veh-02,2023-03-01T08:01:00Z,900,0,87,20,35,4.125\n")
	var got Batch
	batches := 0
	n, err := DecodeCSV(strings.NewReader(sb.String()), 1, SinkFunc(func(b *Batch) error {
		batches++
		got.Records = append(got.Records, b.Records...)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || batches != 2 || len(got.Records) != 2 {
		t.Fatalf("decoded %d rows in %d batches (%d records), want 2/2/2", n, batches, len(got.Records))
	}
	if got.Records[0].VehicleID != "veh-01" || got.Records[0].Values[obd.EngineRPM] != 1500.5 {
		t.Fatalf("row 1 decoded as %+v", got.Records[0])
	}
	if _, err := DecodeCSV(strings.NewReader("not,a,schema\n1,2,3\n"), 0, nopSink{}); err == nil {
		t.Fatal("schema mismatch did not error")
	}

	// IDs are interned: a vehicle's records share one string, which is
	// not a slice of any CSV line.
	sb.WriteString("veh-01,2023-03-01T08:02:00Z,1510,63,88,21,101,14.5\n")
	got.Reset()
	if _, err := DecodeCSV(strings.NewReader(sb.String()), 0, SinkFunc(func(b *Batch) error {
		got.Records = append(got.Records, b.Records...)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	if a, b := got.Records[0].VehicleID, got.Records[2].VehicleID; a != b || unsafe.StringData(a) != unsafe.StringData(b) {
		t.Fatalf("veh-01's two records hold distinct ID strings (%q, %q)", a, b)
	}
}

// TestJSONDecode pins the JSON compat path for both accepted shapes
// (array, NDJSON) and both item kinds.
func TestJSONDecode(t *testing.T) {
	array := `[
	 {"vehicle":"veh-01","time":"2023-03-01T08:00:00Z","values":[1500,60,88,21,101,14.5]},
	 {"vehicle":"veh-01","time":"2023-03-01T08:01:00Z","event":"repair","note":"water pump"},
	 {"vehicle":"veh-02","time":"2023-03-01T08:02:00Z","event":"dtc","dtc":"P0128:stored"}
	]`
	ndjson := `{"vehicle":"veh-01","time":"2023-03-01T08:00:00Z","values":[1500,60,88,21,101,14.5]}
	{"vehicle":"veh-01","time":"2023-03-01T08:01:00Z","event":"repair","note":"water pump"}
	{"vehicle":"veh-02","time":"2023-03-01T08:02:00Z","event":"dtc","dtc":"P0128:stored"}`
	for name, input := range map[string]string{"array": array, "ndjson": ndjson} {
		var got Batch
		n, err := DecodeJSON(strings.NewReader(input), 0, SinkFunc(func(b *Batch) error {
			got.Records = append(got.Records, b.Records...)
			got.Events = append(got.Events, b.Events...)
			return nil
		}))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n != 3 || len(got.Records) != 1 || len(got.Events) != 2 {
			t.Fatalf("%s: decoded %d items (%d records, %d events), want 3 (1, 2)",
				name, n, len(got.Records), len(got.Events))
		}
		if got.Events[1].DTC == nil || got.Events[1].DTC.Kind != obd.DTCStored {
			t.Fatalf("%s: DTC event decoded as %+v", name, got.Events[1])
		}
	}
	if _, err := DecodeJSON(strings.NewReader(`[{"vehicle":"v","time":"2023-03-01T08:00:00Z","values":[1]}]`), 0, nopSink{}); err == nil {
		t.Fatal("short values vector did not error")
	}
}

// TestEncoderAllocBound holds the Encoder's buffer to doubling: while
// it encodes 100 000 records in 512-item frames it allocates at most
// 2.2x its final capacity, and that capacity is at most twice the
// stream it returns, give or take the allocator's 8 KiB page rounding.
// Growth by a factor g allocates about g/(g-1) times the final
// capacity: doubling about 2x, Go's 1.25x append growth about 5x. How
// far the capacity sits above the stream depends on where the stream's
// length falls between two doublings (1.3x for this one), so the bound
// on allocation is taken against the capacity, not the length.
func TestEncoderAllocBound(t *testing.T) {
	recs, _ := testStream(100_000, 40)
	var enc Encoder
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range recs {
		enc.Record(&recs[i])
		if enc.Count() == 512 {
			enc.End()
		}
	}
	enc.End()
	runtime.ReadMemStats(&after)
	if enc.Err() != nil {
		t.Fatal(enc.Err())
	}
	alloc, n, c := after.TotalAlloc-before.TotalAlloc, len(enc.Bytes()), cap(enc.buf)
	t.Logf("%d-byte stream, %d-byte capacity, %d bytes allocated", n, c, alloc)
	if ratio := float64(alloc) / float64(c); ratio > 2.2 {
		t.Errorf("allocated %d bytes for a %d-byte capacity: %.2fx, want <= 2.2x", alloc, c, ratio)
	}
	if c > 2*n+8<<10 {
		t.Errorf("a %d-byte stream kept a %d-byte capacity, want <= twice the stream", n, c)
	}
}
