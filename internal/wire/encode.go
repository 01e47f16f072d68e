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
// Event / End; multiple frames accumulate in the same buffer. A frame
// whose payload passes DefaultMaxFrameBytes, which a default Decoder
// refuses, fails the stream with ErrFrameTooLarge.
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

// Begin opens a new telemetry-batch frame, closing any open one first.
func (e *Encoder) Begin() {
	if e.open {
		e.End()
	}
	e.start = len(e.buf)
	e.buf = append(e.buf, Magic...)
	e.buf = append(e.buf, Version, KindBatch)
	// Payload length and CRC are patched by End.
	e.buf = append(e.buf, 0, 0, 0, 0, 0, 0, 0, 0)
	// Payload starts with the item count, also patched by End.
	e.buf = append(e.buf, 0, 0, 0, 0)
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

// added counts the item just appended to the open frame, failing the
// stream once the frame's payload passes DefaultMaxFrameBytes.
func (e *Encoder) added() {
	e.count++
	if n := len(e.buf) - e.start - HeaderSize; n > DefaultMaxFrameBytes {
		e.setErr(fmt.Errorf("%w: %d-byte frame payload", ErrFrameTooLarge, n))
	}
}

// appendString appends a uint16-length-prefixed string, rejecting
// strings beyond the format's limit.
func (e *Encoder) appendString(s string, what string) bool {
	if len(s) > maxIDLen {
		e.setErr(fmt.Errorf("wire: %s of %d bytes exceeds the %d-byte limit", what, len(s), maxIDLen))
		return false
	}
	e.buf = binary.LittleEndian.AppendUint16(e.buf, uint16(len(s)))
	e.buf = append(e.buf, s...)
	return true
}

// Record appends one telemetry record to the open frame (opening one if
// necessary).
func (e *Encoder) Record(r *timeseries.Record) {
	if e.err != nil {
		return
	}
	if !e.open {
		e.Begin()
	}
	e.buf = append(e.buf, tagRecord)
	if !e.appendString(r.VehicleID, "vehicle ID") {
		return
	}
	e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(r.Time.UnixNano()))
	e.buf = append(e.buf, uint8(obd.NumPIDs))
	for p := 0; p < int(obd.NumPIDs); p++ {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(r.Values[p]))
	}
	e.added()
}

// Event appends one maintenance event to the open frame (opening one if
// necessary).
func (e *Encoder) Event(ev *obd.Event) {
	if e.err != nil {
		return
	}
	if !e.open {
		e.Begin()
	}
	e.buf = append(e.buf, tagEvent)
	if !e.appendString(ev.VehicleID, "vehicle ID") {
		return
	}
	e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(ev.Time.UnixNano()))
	e.buf = append(e.buf, uint8(ev.Type))
	var flags uint8
	if ev.DTC != nil {
		flags |= flagDTC
	}
	e.buf = append(e.buf, flags)
	if ev.DTC != nil {
		if !e.appendString(ev.DTC.Code, "DTC code") {
			return
		}
		e.buf = append(e.buf, uint8(ev.DTC.Kind))
	}
	if !e.appendString(ev.Note, "event note") {
		return
	}
	e.added()
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
	if !e.open {
		e.Begin()
	}
	e.buf = append(e.buf, tagTrace)
	// No vehicle ID: the item describes the whole frame.
	e.buf = binary.LittleEndian.AppendUint16(e.buf, 0)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, id)
	// Reserved flags byte pads the item to minItemSize.
	e.buf = append(e.buf, 0)
	e.added()
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
