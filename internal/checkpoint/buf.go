package checkpoint

import (
	"encoding/binary"
	"math"
	"time"
)

// Snapshotter is the state/config split every stateful component of the
// stack follows. Snapshot serialises only mutable state — buffered
// windows, fitted models, streaming counters — never configuration,
// which the owner reconstructs before calling Restore on an identically
// configured instance. Transformers and thresholders always implement
// it; a custom detector, a fleet handler and a stateful pipeline filter
// may, and are snapshotted exactly when they do.
type Snapshotter interface {
	// Snapshot returns the component's mutable state.
	Snapshot() ([]byte, error)
	// Restore replaces the component's state with a snapshot taken from
	// an identically configured instance.
	Restore(data []byte) error
}

// Buf is an append-only primitive encoder for snapshot payloads. All
// integers are little-endian and fixed-width, floats are IEEE-754 bit
// patterns, and every variable-length value is length-prefixed, so a
// payload decodes deterministically without any schema negotiation.
// The zero value is ready to use.
type Buf struct {
	data []byte
}

// Bytes returns the encoded payload.
func (b *Buf) Bytes() []byte { return b.data }

// Len returns the current payload size.
func (b *Buf) Len() int { return len(b.data) }

// Uint8 appends one byte.
func (b *Buf) Uint8(v uint8) { b.data = append(b.data, v) }

// Bool appends a boolean as one byte (0 or 1).
func (b *Buf) Bool(v bool) {
	if v {
		b.Uint8(1)
	} else {
		b.Uint8(0)
	}
}

// Uint32 appends a fixed-width little-endian uint32.
func (b *Buf) Uint32(v uint32) {
	b.data = binary.LittleEndian.AppendUint32(b.data, v)
}

// Uint64 appends a fixed-width little-endian uint64.
func (b *Buf) Uint64(v uint64) {
	b.data = binary.LittleEndian.AppendUint64(b.data, v)
}

// Int appends an int as a sign-preserving uint64.
func (b *Buf) Int(v int) { b.Uint64(uint64(int64(v))) }

// Int64 appends an int64 as its two's-complement uint64.
func (b *Buf) Int64(v int64) { b.Uint64(uint64(v)) }

// Float64 appends the IEEE-754 bit pattern of v, preserving NaN
// payloads and signed zeros so a snapshot round-trip is bit-exact.
func (b *Buf) Float64(v float64) { b.Uint64(math.Float64bits(v)) }

// Time appends a wall-clock instant as unix nanoseconds behind a zero
// flag, so the zero time (not 1970) round-trips.
func (b *Buf) Time(t time.Time) {
	b.Bool(t.IsZero())
	if t.IsZero() {
		b.Int64(0)
	} else {
		b.Int64(t.UnixNano())
	}
}

// String appends a length-prefixed UTF-8 string.
func (b *Buf) String(s string) {
	b.Int(len(s))
	b.data = append(b.data, s...)
}

// Bytes64 appends a length-prefixed byte slice.
func (b *Buf) Bytes64(p []byte) {
	b.Int(len(p))
	b.data = append(b.data, p...)
}

// Float64s appends a length-prefixed []float64.
func (b *Buf) Float64s(v []float64) {
	b.Int(len(v))
	for _, x := range v {
		b.Float64(x)
	}
}

// Float64Rows appends a length-prefixed [][]float64 (each row itself
// length-prefixed, so ragged matrices round-trip).
func (b *Buf) Float64Rows(rows [][]float64) {
	b.Int(len(rows))
	for _, r := range rows {
		b.Float64s(r)
	}
}

// Bools appends a length-prefixed []bool.
func (b *Buf) Bools(v []bool) {
	b.Int(len(v))
	for _, x := range v {
		b.Bool(x)
	}
}

// RBuf is the matching sticky-error decoder: the first failed read
// poisons the buffer, every later read returns zero values, and Err
// reports what went wrong. This keeps decode call-sites linear instead
// of error-checked line by line; callers check Err once at the end.
type RBuf struct {
	data []byte
	pos  int
	err  error
}

// NewRBuf returns a decoder over payload.
func NewRBuf(payload []byte) *RBuf { return &RBuf{data: payload} }

// Err returns the sticky decode error (nil while all reads succeeded).
func (r *RBuf) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *RBuf) Remaining() int { return len(r.data) - r.pos }

// fail poisons the buffer with ErrTruncated.
func (r *RBuf) fail() {
	if r.err == nil {
		r.err = ErrTruncated
	}
}

// take returns the next n bytes, or nil after poisoning on underflow.
func (r *RBuf) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.pos+n > len(r.data) {
		r.fail()
		return nil
	}
	p := r.data[r.pos : r.pos+n]
	r.pos += n
	return p
}

// Uint8 reads one byte.
func (r *RBuf) Uint8() uint8 {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// Bool reads a one-byte boolean.
func (r *RBuf) Bool() bool { return r.Uint8() != 0 }

// Uint32 reads a fixed-width little-endian uint32.
func (r *RBuf) Uint32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

// Uint64 reads a fixed-width little-endian uint64.
func (r *RBuf) Uint64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// Int reads an int written by Buf.Int.
func (r *RBuf) Int() int { return int(int64(r.Uint64())) }

// Int64 reads an int64.
func (r *RBuf) Int64() int64 { return int64(r.Uint64()) }

// Float64 reads an IEEE-754 bit pattern.
func (r *RBuf) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// Time reads an instant written by Buf.Time, in UTC.
func (r *RBuf) Time() time.Time {
	zero := r.Bool()
	nanos := r.Int64()
	if zero {
		return time.Time{}
	}
	return time.Unix(0, nanos).UTC()
}

// sliceLen validates a length prefix against the bytes actually left,
// with elemSize the minimum encoded size of one element. A corrupted
// prefix can claim petabytes; bounding it by Remaining keeps decoding
// of hostile inputs allocation-safe.
func (r *RBuf) sliceLen(elemSize int) int {
	n := r.Int()
	if r.err != nil {
		return 0
	}
	if n < 0 || n > r.Remaining()/elemSize { // n*elemSize could overflow
		r.fail()
		return 0
	}
	return n
}

// String reads a length-prefixed string.
func (r *RBuf) String() string {
	n := r.sliceLen(1)
	return string(r.take(n))
}

// Bytes64 reads a length-prefixed byte slice (copied out of the buffer).
func (r *RBuf) Bytes64() []byte {
	n := r.sliceLen(1)
	p := r.take(n)
	if p == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, p)
	return out
}

// Float64s reads a length-prefixed []float64 (nil when empty).
func (r *RBuf) Float64s() []float64 {
	n := r.sliceLen(8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.Float64()
	}
	return out
}

// Float64Rows reads a length-prefixed [][]float64 (nil when empty).
func (r *RBuf) Float64Rows() [][]float64 {
	n := r.sliceLen(8)
	if n == 0 {
		return nil
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = r.Float64s()
	}
	return out
}

// Bools reads a length-prefixed []bool (nil when empty).
func (r *RBuf) Bools() []bool {
	n := r.sliceLen(1)
	if n == 0 {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = r.Bool()
	}
	return out
}

// Close verifies the payload was consumed exactly: trailing garbage is
// as much a corruption signal as truncation.
func (r *RBuf) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.data) {
		return ErrTrailingData
	}
	return nil
}
