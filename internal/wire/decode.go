package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"time"

	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/timeseries"
)

// Decoder decodes NVWIRE1 frames. The zero value is ready to use. A
// decoder is NOT safe for concurrent use — give each connection (or
// each in-flight request: navarchos-serve keeps a pool) its own, and
// keep it: everything that makes decoding allocation-free lives in the
// decoder and is reused by the next DecodeInto or DecodeStream call.
//
// State a decoder owns:
//
//   - the vehicle-ID intern table, shared by DecodeInto and
//     DecodeStream: a returning vehicle's ID is a map lookup, not an
//     allocation. Bounded by maxIntern entries and maxInternBytes of
//     ID text; IDs beyond either bound still decode, they just
//     allocate per record.
//   - DecodeStream's stream state: the bufio.Reader over the source
//     (re-armed with Reset, never re-allocated), the frame header and
//     payload buffers, and the Batch delivered to the sink. None of it
//     carries anything from one stream into the next — the reader is
//     re-armed, the batch is reset before every frame, and every
//     payload byte handed to the parser was read from the current
//     stream — so a decoder that last saw a corrupt or truncated
//     stream decodes the next one exactly as a fresh decoder would.
//
// Retained-buffer bound: when DecodeStream returns it drops its
// reference to the source reader, and if the stream carried a frame
// above maxRetainedFrameBytes it releases the payload buffer and the
// batch with it, so a parked decoder holds at most the 64 KiB read
// buffer, maxRetainedFrameBytes of payload, the batch capacity a
// payload of that size can fill, and the bounded intern table — never
// one MaxFrameBytes-sized upload.
//
// Steady-state decoding is allocation-free: records are appended into
// the Batch (whose capacity is reused across frames), floats are
// reinterpreted bit patterns, and vehicle-ID strings are interned.
// Events allocate their note/DTC strings — they are orders of magnitude
// rarer than records, so they never carry the throughput bound.
type Decoder struct {
	// MaxFrameBytes bounds one frame's payload (DefaultMaxFrameBytes
	// when zero). Oversized length prefixes fail with ErrFrameTooLarge
	// before any allocation happens.
	MaxFrameBytes int

	// HandoffSink receives each KindHandoff frame's CRC-verified
	// payload (one serialized fleet.VehicleState). The slice aliases
	// the decode buffer and is valid only for the duration of the call
	// — the sink must adopt (or copy) before returning. A nil sink
	// refuses handoff frames with ErrBadKind, so a plain telemetry
	// endpoint cannot be tricked into swallowing state.
	HandoffSink func(state []byte) error

	intern      map[string]string
	internBytes int

	// DecodeStream's reused state.
	br      *bufio.Reader
	header  [HeaderSize]byte
	payload []byte
	batch   Batch
}

// maxFrame resolves the frame size limit.
func (d *Decoder) maxFrame() int {
	if d.MaxFrameBytes > 0 {
		return d.MaxFrameBytes
	}
	return DefaultMaxFrameBytes
}

// internID returns the canonical string for a vehicle-ID byte slice,
// allocating only the first time an ID is seen. The m[string(b)] lookup
// compiles to a no-allocation map access; the table is bounded by
// maxIntern entries and maxInternBytes of text so hostile streams full
// of unique (or maximally long) IDs cannot balloon a long-lived decoder.
func (d *Decoder) internID(b []byte) string {
	if s, ok := d.intern[string(b)]; ok {
		return s
	}
	s := string(b)
	if d.intern == nil {
		d.intern = make(map[string]string)
	}
	if len(d.intern) < maxIntern && d.internBytes+len(s) <= maxInternBytes {
		d.intern[s] = s
		d.internBytes += len(s)
	}
	return s
}

// checkHeader validates a frame header — magic, version, kind, and the
// payload length against MaxFrameBytes — and returns the kind and the
// payload length. It is everything that can be known about a frame
// before its payload is present, so stream callers run it before they
// size a buffer from the length prefix.
func (d *Decoder) checkHeader(h []byte) (kind byte, n int, err error) {
	if string(h[:4]) != Magic {
		return 0, 0, ErrBadMagic
	}
	if h[4] != Version {
		return 0, 0, ErrBadVersion
	}
	kind = h[5]
	if kind != KindBatch && !(kind == KindHandoff && d.HandoffSink != nil) {
		return 0, 0, ErrBadKind
	}
	n = int(binary.LittleEndian.Uint32(h[6:]))
	if n > d.maxFrame() {
		return 0, 0, ErrFrameTooLarge
	}
	return kind, n, nil
}

// decodeBody verifies a complete payload against the header's CRC and
// routes it by kind: telemetry items into b, a handoff to HandoffSink.
func (d *Decoder) decodeBody(kind byte, crc uint32, payload []byte, b *Batch) error {
	if crc32.Checksum(payload, castagnoli) != crc {
		return ErrCorrupt
	}
	if kind == KindHandoff {
		return d.HandoffSink(payload)
	}
	return d.decodePayload(payload, b)
}

// DecodeInto decodes the first complete frame in buf, appending its
// items into b (call b.Reset first to decode a frame in isolation), and
// returns the number of bytes consumed. ErrTruncated means buf holds
// less than one complete frame — stream callers read more and retry.
// The decode is bit-exact: Float64bits of every value survive the
// round trip.
func (d *Decoder) DecodeInto(buf []byte, b *Batch) (int, error) {
	if len(buf) < HeaderSize {
		return 0, ErrTruncated
	}
	kind, n, err := d.checkHeader(buf)
	if err != nil {
		return 0, err
	}
	if len(buf) < HeaderSize+n {
		return 0, ErrTruncated
	}
	crc := binary.LittleEndian.Uint32(buf[10:])
	if err := d.decodeBody(kind, crc, buf[HeaderSize:HeaderSize+n], b); err != nil {
		return 0, err
	}
	return HeaderSize + n, nil
}

// decodePayload parses one CRC-verified telemetry-batch payload.
func (d *Decoder) decodePayload(payload []byte, b *Batch) error {
	r := payloadReader{data: payload}
	count := int(r.uint32())
	// Each item needs at least minItemSize bytes; a count prefix
	// claiming more is corrupt, not a reason to allocate.
	if count < 0 || count*minItemSize > r.remaining() {
		return ErrBadFrame
	}
	for i := 0; i < count; i++ {
		tag := r.uint8()
		id := r.bytes16()
		nanos := int64(r.uint64())
		if r.failed || len(id) > maxIDLen {
			return ErrBadFrame
		}
		ts := time.Unix(0, nanos).UTC()
		switch tag {
		case tagRecord:
			nv := int(r.uint8())
			if nv != int(obd.NumPIDs) {
				return ErrBadFrame
			}
			b.Records = append(b.Records, timeseries.Record{})
			rec := &b.Records[len(b.Records)-1]
			rec.VehicleID = d.internID(id)
			rec.Time = ts
			for p := 0; p < nv; p++ {
				rec.Values[p] = math.Float64frombits(r.uint64())
			}
		case tagEvent:
			typ := obd.EventType(r.uint8())
			if typ < obd.EventService || typ > obd.EventDTC {
				return ErrBadFrame
			}
			flags := r.uint8()
			ev := obd.Event{VehicleID: d.internID(id), Time: ts, Type: typ}
			if flags&flagDTC != 0 {
				code := r.bytes16()
				kind := obd.DTCKind(r.uint8())
				if r.failed || len(code) > maxIDLen || kind < obd.DTCPending || kind > obd.DTCStored {
					return ErrBadFrame
				}
				ev.DTC = &obd.DTC{Code: string(code), Kind: kind}
			}
			note := r.bytes16()
			if r.failed || len(note) > maxIDLen {
				return ErrBadFrame
			}
			if len(note) > 0 {
				ev.Note = string(note)
			}
			b.Events = append(b.Events, ev)
		case tagTrace:
			// The common-prefix uint64 is the trace ID here, not a
			// timestamp; the item carries no vehicle ID. The reserved
			// flags byte is read and ignored so future producers can
			// use it without breaking this decoder.
			if len(id) != 0 {
				return ErrBadFrame
			}
			r.uint8()
			b.TraceID = uint64(nanos)
		default:
			return ErrBadFrame
		}
		if r.failed {
			return ErrBadFrame
		}
	}
	if r.remaining() != 0 {
		return ErrBadFrame
	}
	return nil
}

// DecodeStream reads consecutive frames from r, decoding each into the
// decoder's reused batch and delivering it to sink — the path behind
// navarchos-serve's binary POST /ingest. It returns the frame count
// and the first read, decode or sink error; a stream ending at a frame
// boundary returns nil.
//
// Each header is validated (checkHeader) before the payload buffer is
// sized from its length prefix, so bytes that are not a frame fail with
// their typed header error and cost no allocation, whatever length they
// claim. The read buffer, payload buffer and batch belong to the
// decoder and are reused by the next call: the payload buffer grows to
// the largest frame seen and stays, so a warm decoder reads and decodes
// a stream without allocating. See Decoder for what is released when
// the stream ends.
func (d *Decoder) DecodeStream(r io.Reader, sink FrameSink) (int, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		if d.br == nil {
			d.br = bufio.NewReaderSize(r, streamReadBytes)
		} else {
			d.br.Reset(r)
		}
		br = d.br
	}
	defer d.endStream()
	frames := 0
	for {
		if _, err := io.ReadFull(br, d.header[:]); err != nil {
			if err == io.EOF {
				return frames, nil
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return frames, ErrTruncated
			}
			return frames, err
		}
		kind, n, err := d.checkHeader(d.header[:])
		if err != nil {
			return frames, err
		}
		if cap(d.payload) < n {
			d.payload = make([]byte, n)
		}
		payload := d.payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
				return frames, ErrTruncated
			}
			return frames, err
		}
		d.batch.Reset()
		crc := binary.LittleEndian.Uint32(d.header[10:])
		if err := d.decodeBody(kind, crc, payload, &d.batch); err != nil {
			return frames, err
		}
		frames++
		if err := sink.ConsumeBatch(&d.batch); err != nil {
			return frames, err
		}
	}
}

// endStream applies the retained-buffer bound when a stream ends: the
// source reader is dropped (a parked decoder must not pin a request
// body), and a payload buffer grown past maxRetainedFrameBytes is
// released together with the batch that frame filled.
func (d *Decoder) endStream() {
	if d.br != nil {
		d.br.Reset(nil)
	}
	if cap(d.payload) > maxRetainedFrameBytes {
		d.payload = nil
		d.batch = Batch{}
	}
}

// payloadReader is a bounds-checked cursor over a frame payload: the
// first out-of-range read sets failed and every later read returns
// zero, so decode call sites stay linear and a hostile length can never
// cause an over-read. Unlike checkpoint.RBuf it hands out sub-slices of
// the payload without copying — the decoder's zero-copy seam.
type payloadReader struct {
	data   []byte
	pos    int
	failed bool
}

func (r *payloadReader) remaining() int { return len(r.data) - r.pos }

func (r *payloadReader) take(n int) []byte {
	if r.failed || n < 0 || r.pos+n > len(r.data) {
		r.failed = true
		return nil
	}
	p := r.data[r.pos : r.pos+n]
	r.pos += n
	return p
}

func (r *payloadReader) uint8() uint8 {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (r *payloadReader) uint32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (r *payloadReader) uint64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// bytes16 reads a uint16-length-prefixed byte slice aliasing the
// payload (valid until the caller's buffer is reused).
func (r *payloadReader) bytes16() []byte {
	p := r.take(2)
	if p == nil {
		return nil
	}
	return r.take(int(binary.LittleEndian.Uint16(p)))
}
