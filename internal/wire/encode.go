package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"github.com/navarchos/pdm/internal/core"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/timeseries"
)

// Encoder builds NVWIRE1 frames in an append-only buffer. The zero
// value is ready to use; Reset reuses the buffer for a new stream, so a
// steady-state producer (the bench harness, a telemetry forwarder)
// encodes without allocating. Frames are built by Begin / Record /
// Event / End; multiple frames accumulate in the same buffer. Each item
// reserves its encoded size once and is written in place. A full buffer
// grows to at least twice the bytes it holds, so each byte is copied
// about once after it is written and a stream allocates about twice its
// final capacity. An item that does not fit the format's limits fails the
// stream and appends nothing: a string beyond the limit, or a frame
// whose payload would pass DefaultMaxFrameBytes, which a default
// Decoder refuses (ErrFrameTooLarge).
type Encoder struct {
	buf   []byte
	open  bool
	start int    // offset of the open frame's header
	count uint32 // items in the open frame
	err   error  // sticky: first item that failed to encode or overfilled its frame
}

// Reset drops all encoded bytes, keeping the buffer's capacity.
func (e *Encoder) Reset() {
	e.buf = e.buf[:0]
	e.open = false
	e.count = 0
	e.err = nil
}

// Bytes returns every finished frame encoded so far. It panics if a
// frame is still open — End must close it first.
func (e *Encoder) Bytes() []byte {
	if e.open {
		panic("wire: Encoder.Bytes with an open frame")
	}
	return e.buf
}

// Err returns the sticky encode error (nil while every item fit the
// format's limits).
func (e *Encoder) Err() error { return e.err }

// grow extends the buffer by n bytes and returns them, still holding
// whatever a Reset stream left there: the caller writes every one. A
// new buffer comes from make, not append: append zeroes all of the new
// capacity, where make leaves pages fresh from the OS untouched until
// they are written, and under the race detector append allocates n
// bytes more.
func (e *Encoder) grow(n int) []byte {
	l := len(e.buf)
	if l+n > cap(e.buf) {
		buf := make([]byte, l, 2*l+n)
		copy(buf, e.buf)
		e.buf = buf
	}
	e.buf = e.buf[:l+n]
	return e.buf[l:]
}

// Begin opens a new telemetry-batch frame, closing any open one first.
func (e *Encoder) Begin() {
	if e.open {
		e.End()
	}
	e.start = len(e.buf)
	// The payload length, CRC and the payload's leading item count are
	// patched by End.
	h := e.grow(HeaderSize + 4)
	copy(h, Magic)
	h[4], h[5] = Version, KindBatch
	e.count = 0
	e.open = true
}

// End closes the open frame, patching its item count, payload length
// and CRC. A no-op when no frame is open.
func (e *Encoder) End() {
	if !e.open {
		return
	}
	payload := e.buf[e.start+HeaderSize:]
	binary.LittleEndian.PutUint32(payload, e.count)
	binary.LittleEndian.PutUint32(e.buf[e.start+6:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(e.buf[e.start+10:], crc32.Checksum(payload, castagnoli))
	e.open = false
}

// Count returns the number of items in the open frame (0 when closed).
func (e *Encoder) Count() int {
	if !e.open {
		return 0
	}
	return int(e.count)
}

// setErr records the first encode failure; later items are dropped so
// a stream built through a sticky encoder is never silently partial.
func (e *Encoder) setErr(err error) {
	if e.err == nil {
		e.err = err
	}
}

// fits reports whether s is within the format's string limit, failing
// the stream when it is not.
func (e *Encoder) fits(s string, what string) bool {
	if len(s) > maxIDLen {
		e.setErr(fmt.Errorf("wire: %s of %d bytes exceeds the %d-byte limit", what, len(s), maxIDLen))
		return false
	}
	return true
}

// item reserves size bytes for one item in the open frame (opening one
// if necessary) and counts it. It returns nil, failing the stream, when
// the item would take the frame's payload past DefaultMaxFrameBytes.
func (e *Encoder) item(size int) []byte {
	if !e.open {
		e.Begin()
	}
	if n := len(e.buf) + size - e.start - HeaderSize; n > DefaultMaxFrameBytes {
		e.setErr(fmt.Errorf("%w: %d-byte frame payload", ErrFrameTooLarge, n))
		return nil
	}
	e.count++
	return e.grow(size)
}

// putString writes s with its uint16 length prefix at b[o:] and returns
// the offset past it.
func putString(b []byte, o int, s string) int {
	binary.LittleEndian.PutUint16(b[o:], uint16(len(s)))
	return o + 2 + copy(b[o+2:], s)
}

// Record appends one telemetry record to the open frame (opening one if
// necessary).
func (e *Encoder) Record(r *timeseries.Record) {
	if e.err != nil || !e.fits(r.VehicleID, "vehicle ID") {
		return
	}
	b := e.item(1 + 2 + len(r.VehicleID) + 8 + 1 + 8*len(r.Values))
	if b == nil {
		return
	}
	b[0] = tagRecord
	o := putString(b, 1, r.VehicleID)
	binary.LittleEndian.PutUint64(b[o:], uint64(r.Time.UnixNano()))
	b[o+8] = uint8(len(r.Values))
	vals := b[o+9:]
	for p, v := range r.Values {
		binary.LittleEndian.PutUint64(vals[8*p:], math.Float64bits(v))
	}
}

// Event appends one maintenance event to the open frame (opening one if
// necessary).
func (e *Encoder) Event(ev *obd.Event) {
	if e.err != nil || !e.fits(ev.VehicleID, "vehicle ID") {
		return
	}
	size := 1 + 2 + len(ev.VehicleID) + 8 + 1 + 1 + 2 + len(ev.Note)
	var flags uint8
	if ev.DTC != nil {
		if !e.fits(ev.DTC.Code, "DTC code") {
			return
		}
		flags |= flagDTC
		size += 2 + len(ev.DTC.Code) + 1
	}
	if !e.fits(ev.Note, "event note") {
		return
	}
	b := e.item(size)
	if b == nil {
		return
	}
	b[0] = tagEvent
	o := putString(b, 1, ev.VehicleID)
	binary.LittleEndian.PutUint64(b[o:], uint64(ev.Time.UnixNano()))
	b[o+8], b[o+9] = uint8(ev.Type), flags
	o += 10
	if ev.DTC != nil {
		o = putString(b, o, ev.DTC.Code)
		b[o] = uint8(ev.DTC.Kind)
		o++
	}
	putString(b, o, ev.Note)
}

// Item tags and event flags.
const (
	tagRecord = 0
	tagEvent  = 1
	tagTrace  = 2
	flagDTC   = 1 << 0
)

// TraceContext appends the frame's trace-context item carrying a
// producer-assigned trace ID (opening a frame if necessary). Stamp it
// once, right after Begin, so receivers attribute every item in the
// frame to it. A zero ID is the "no trace" value and appends nothing.
func (e *Encoder) TraceContext(id uint64) {
	if e.err != nil || id == 0 {
		return
	}
	b := e.item(minItemSize)
	if b == nil {
		return
	}
	// No vehicle ID: the item describes the whole frame. A reserved
	// flags byte pads it to minItemSize.
	b[0], b[1], b[2] = tagTrace, 0, 0
	binary.LittleEndian.PutUint64(b[3:], id)
	b[11] = 0
}

// AppendHandoff appends one vehicle-handoff frame carrying a
// serialized fleet.VehicleState and returns the extended buffer. The
// state travels opaque to the wire layer — CRC-framed like telemetry,
// decoded by the receiver's engine through the same per-vehicle codec
// its checkpoints use. Errors only when the state exceeds the frame
// size bound.
func AppendHandoff(dst []byte, state []byte) ([]byte, error) {
	if len(state) > DefaultMaxFrameBytes {
		return dst, fmt.Errorf("%w: %d-byte vehicle state", ErrFrameTooLarge, len(state))
	}
	dst = append(dst, Magic...)
	dst = append(dst, Version, KindHandoff)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(state)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(state, castagnoli))
	return append(dst, state...), nil
}

// EncodeStream encodes whole record and event streams as a sequence of
// frames of up to perFrame items each, appended to dst. The streams are
// merged chronologically with events before same-timestamp records
// (core.Merged), so decoding the result and admitting each batch through
// IngestBatch reproduces a replay bit-for-bit. Returns the extended buffer and the frame count.
func EncodeStream(dst []byte, records []timeseries.Record, events []obd.Event, perFrame int) ([]byte, int, error) {
	if perFrame <= 0 {
		perFrame = 512
	}
	enc := Encoder{buf: dst}
	frames := 0
	cut := func() {
		if enc.Count() >= perFrame {
			enc.End()
			frames++
		}
	}
	err := core.Merged("", records, events,
		func(ev obd.Event) error {
			enc.Event(&ev)
			cut()
			return enc.Err()
		},
		func(r timeseries.Record) error {
			enc.Record(&r)
			cut()
			return enc.Err()
		})
	if err != nil {
		return dst, 0, err
	}
	if enc.Count() > 0 {
		enc.End()
		frames++
	}
	return enc.Bytes(), frames, nil
}
