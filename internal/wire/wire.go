// Package wire implements NVWIRE1, the telemetry ingest wire format:
// length-prefixed, CRC-checked binary frames carrying batches of
// telemetry records and maintenance events, with an allocation-free
// batch decoder. It is the data plane between the network edge
// (cmd/navarchos-serve) and the fleet engine's batch admission seam
// (fleet.Engine.IngestBatch): the hot path from socket to shard never
// touches the allocator once a decoder is warm, which is what keeps
// real-world ingest from becoming allocator-bound long before the
// scoring path saturates.
//
// # Frame layout
//
// A stream is a sequence of self-delimiting frames:
//
//	offset  size  field
//	0       4     magic "NVW1"
//	4       1     version (1)
//	5       1     frame kind (0 = telemetry batch, 1 = vehicle handoff)
//	6       4     payload length, little-endian uint32
//	10      4     CRC-32C (Castagnoli) of the payload, little-endian
//	14      n     payload
//
// A vehicle-handoff payload is one serialized fleet.VehicleState (the
// engine's canonical per-vehicle checkpoint codec) — the frame that
// lets the control plane's drain travel the same zero-copy wire path
// as telemetry instead of a second serialization stack. Decoders route
// it to their HandoffSink; decoders without one refuse the frame.
//
// A telemetry-batch payload is an item count followed by that many
// items in stream order:
//
//	uint32  count
//	count × item:
//	  uint8   tag (0 = record, 1 = event, 2 = trace context)
//	  uint16  vehicle-ID length + that many bytes (always 0 for trace)
//	  record: int64 timestamp, UTC unix nanoseconds;
//	          uint8 value count (= obd.NumPIDs) + count × IEEE-754 bits
//	  event:  int64 timestamp, UTC unix nanoseconds;
//	          uint8 type; uint8 flags (bit 0: DTC present);
//	          [uint16 DTC code length + bytes; uint8 DTC kind];
//	          uint16 note length + bytes
//	  trace:  uint64 producer trace ID; uint8 reserved flags (0)
//
// The trace-context item is the format's provenance extension: a
// producer stamps at most one per frame (conventionally first) and the
// decoder surfaces it as Batch.TraceID, where the ingest path threads
// it into alarm provenance. It is deliberately an *item*, not a header
// change — frames without one are byte-identical to the pre-extension
// format, so old golden frames keep decoding and old decoders reject
// only frames that actually use the extension.
//
// All integers are little-endian and fixed-width; floats travel as
// IEEE-754 bit patterns, so a record round-trips bit-exactly — the
// property that makes wire-fed alarms Float64bits-identical to the same
// trace fed through fleet.Engine.Replay.
//
// # Ordering contract
//
// Items within a frame and frames within a stream are processed in
// order. Feeding each vehicle's elements chronologically, events before
// same-timestamp records (the core.RunVehicle contract), makes wire
// ingest bit-identical to an in-memory replay at any shard count.
// Encoder callers get this for free from EncodeStream, which merges
// record and event streams exactly as Replay does.
//
// # Safety
//
// The decoder never panics and never over-reads on truncated, corrupt
// or adversarial input: every length is validated against the bytes
// actually present, frames are bounded by MaxFrameBytes, a stream's
// header is validated before a buffer is sized from its length prefix,
// and corruption surfaces as one of the typed errors (ErrBadMagic,
// ErrBadVersion, ErrBadKind, ErrTruncated, ErrCorrupt,
// ErrFrameTooLarge, ErrBadFrame) — the contract FuzzWireDecode pins.
package wire

import (
	"errors"
	"hash/crc32"

	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/timeseries"
)

// Format constants.
const (
	// Magic opens every NVWIRE1 frame.
	Magic = "NVW1"
	// Version is the current format version byte.
	Version = 1
	// KindBatch is the telemetry-batch frame kind.
	KindBatch = 0
	// KindHandoff is the vehicle-handoff frame kind: the payload is one
	// serialized fleet.VehicleState.
	KindHandoff = 1
	// HeaderSize is the fixed frame header length in bytes.
	HeaderSize = 14
	// DefaultMaxFrameBytes bounds a frame payload unless the decoder
	// overrides it: large enough for tens of thousands of records per
	// frame, small enough that a corrupt length prefix cannot balloon
	// memory.
	DefaultMaxFrameBytes = 16 << 20
	// maxIDLen bounds one vehicle-ID, DTC-code or note string.
	maxIDLen = 1024
	// maxIntern bounds the decoder's vehicle-ID intern table; fleets
	// beyond it still decode, later IDs just allocate per record.
	maxIntern = 1 << 16
	// maxInternBytes bounds the total ID text the intern table holds
	// (16 bytes per ID at maxIntern entries), so a long-lived decoder
	// fed maxIDLen-sized unique IDs cannot pin 64 MiB of them.
	maxInternBytes = 1 << 20
	// streamReadBytes sizes DecodeStream's bufio.Reader.
	streamReadBytes = 64 << 10
	// maxRetainedFrameBytes is the largest payload buffer a decoder
	// keeps between DecodeStream calls — room for a ~15 000-record
	// frame. A stream that needed more gives the buffer back when it
	// ends, so a pooled decoder never pins a MaxFrameBytes-sized upload.
	maxRetainedFrameBytes = 1 << 20
	// minItemSize is the smallest encodable item (record tag + empty ID
	// + timestamp + value count), used to sanity-check count prefixes.
	// The trace-context item is padded with a reserved flags byte to
	// exactly this size so the sanity check stays exact.
	minItemSize = 1 + 2 + 8 + 1
)

// Typed decode errors. ErrTruncated doubles as the "need more bytes"
// signal for callers feeding partial buffers.
var (
	ErrBadMagic      = errors.New("wire: bad magic (not an NVWIRE1 frame)")
	ErrBadVersion    = errors.New("wire: unsupported frame version")
	ErrBadKind       = errors.New("wire: unknown frame kind")
	ErrTruncated     = errors.New("wire: truncated frame")
	ErrCorrupt       = errors.New("wire: frame CRC mismatch")
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	ErrBadFrame      = errors.New("wire: malformed frame payload")
)

// castagnoli is the CRC-32C table shared by encoder and decoder.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Batch is one decoded telemetry frame: records and events in
// per-vehicle stream order. The decoder reuses both slices' capacity
// across frames, so a long-lived Batch is what makes the decode loop
// allocation-free; treat the contents as valid only until the next
// DecodeInto on the same Batch.
type Batch struct {
	Records []timeseries.Record
	Events  []obd.Event
	// TraceID is the producer trace context carried by the frame's
	// trace-context item (0 when the frame carried none; when a corrupt
	// producer stamps several, the last one wins).
	TraceID uint64
}

// Reset empties the batch, keeping capacity.
func (b *Batch) Reset() {
	b.Records = b.Records[:0]
	b.Events = b.Events[:0]
	b.TraceID = 0
}

// Len returns the number of items in the batch.
func (b *Batch) Len() int { return len(b.Records) + len(b.Events) }

// FrameSink consumes decoded batches. The batch is only valid for the
// duration of the call — the decoder reuses its backing arrays for the
// next frame — so sinks must finish routing (or copy) before returning.
// fleet.Engine.IngestBatch copies envelopes into shard queues, which
// satisfies the contract. All three ingest decoders (binary stream,
// CSV, JSON) deliver through this interface, so the serve path treats
// every format identically downstream of decode.
type FrameSink interface {
	ConsumeBatch(b *Batch) error
}

// SinkFunc adapts a function to the FrameSink interface.
type SinkFunc func(b *Batch) error

// ConsumeBatch implements FrameSink.
func (f SinkFunc) ConsumeBatch(b *Batch) error { return f(b) }
