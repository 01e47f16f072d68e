package transform

import (
	"errors"
	"time"

	"github.com/navarchos/pdm/internal/checkpoint"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/timeseries"
)

// ErrBadSnapshot is returned when a snapshot payload does not decode as
// state for this transformer kind and configuration.
var ErrBadSnapshot = errors.New("transform: malformed snapshot")

// Per-kind payload tags: restoring a delta snapshot into a correlation
// transformer must fail loudly, not bend state.
const (
	corrTag     = uint8(1)
	rawTag      = uint8(2)
	deltaTag    = uint8(3)
	meanTag     = uint8(4)
	histTag     = uint8(5)
	spectralTag = uint8(6)
)

// putTime serialises a wall-clock instant, keeping the zero time
// distinguishable (time.Unix(0, 0) is 1970, not the zero time, and the
// gap guard's broken() branches on IsZero).
func putTime(b *checkpoint.Buf, t time.Time) {
	b.Bool(t.IsZero())
	if t.IsZero() {
		b.Int64(0)
	} else {
		b.Int64(t.UnixNano())
	}
}

// getTime reads a putTime instant.
func getTime(r *checkpoint.RBuf) time.Time {
	zero := r.Bool()
	nanos := r.Int64()
	if zero {
		return time.Time{}
	}
	return time.Unix(0, nanos).UTC()
}

// putRecord serialises one raw record (for buffered windows).
func putRecord(b *checkpoint.Buf, rec timeseries.Record) {
	b.String(rec.VehicleID)
	putTime(b, rec.Time)
	for _, v := range rec.Values {
		b.Float64(v)
	}
}

// getRecord reads a putRecord record.
func getRecord(r *checkpoint.RBuf) timeseries.Record {
	var rec timeseries.Record
	rec.VehicleID = r.String()
	rec.Time = getTime(r)
	for i := range rec.Values {
		rec.Values[i] = r.Float64()
	}
	return rec
}

// Snapshot writes the ring oldest-first, so the payload is canonical
// regardless of how the ring happened to be rotated when the snapshot
// was taken.
func (c *corrTransformer) Snapshot() ([]byte, error) {
	var b checkpoint.Buf
	b.Uint8(corrTag)
	b.Int(c.window)
	b.Int(c.n)
	putTime(&b, c.gap.last)
	for _, v := range c.shift {
		b.Float64(v)
	}
	for _, v := range c.sum {
		b.Float64(v)
	}
	for i := 0; i < int(obd.NumPIDs); i++ {
		for j := i; j < int(obd.NumPIDs); j++ {
			b.Float64(c.prod[i][j])
		}
	}
	for r := 0; r < c.n; r++ {
		row := c.ring[(c.next-c.n+r+2*c.window)%c.window]
		for _, v := range row {
			b.Float64(v)
		}
	}
	return b.Bytes(), nil
}

func (c *corrTransformer) Restore(data []byte) error {
	r := checkpoint.NewRBuf(data)
	if r.Uint8() != corrTag {
		return ErrBadSnapshot
	}
	if r.Int() != c.window {
		return ErrBadSnapshot // snapshot from a differently configured window
	}
	n := r.Int()
	last := getTime(r)
	var shift, sum [obd.NumPIDs]float64
	var prod [obd.NumPIDs][obd.NumPIDs]float64
	for i := range shift {
		shift[i] = r.Float64()
	}
	for i := range sum {
		sum[i] = r.Float64()
	}
	for i := 0; i < int(obd.NumPIDs); i++ {
		for j := i; j < int(obd.NumPIDs); j++ {
			prod[i][j] = r.Float64()
		}
	}
	if n < 0 || n > c.window {
		return ErrBadSnapshot
	}
	ring := make([][obd.NumPIDs]float64, c.window)
	for i := 0; i < n; i++ {
		for k := range ring[i] {
			ring[i][k] = r.Float64()
		}
	}
	if err := r.Close(); err != nil {
		return err
	}
	c.n = n
	c.next = n % c.window
	c.gap.last = last
	c.shift = shift
	c.sum = sum
	c.prod = prod
	c.ring = ring
	return nil
}

func (t *rawTransformer) Snapshot() ([]byte, error) {
	var b checkpoint.Buf
	b.Uint8(rawTag)
	b.Bool(t.have)
	for _, v := range t.cur {
		b.Float64(v)
	}
	return b.Bytes(), nil
}

func (t *rawTransformer) Restore(data []byte) error {
	r := checkpoint.NewRBuf(data)
	if r.Uint8() != rawTag {
		return ErrBadSnapshot
	}
	have := r.Bool()
	var cur [obd.NumPIDs]float64
	for i := range cur {
		cur[i] = r.Float64()
	}
	if err := r.Close(); err != nil {
		return err
	}
	t.have = have
	t.cur = cur
	return nil
}

// Snapshot writes the last sample pair the first difference is pending
// over, plus the gap-guard clock.
func (t *deltaTransformer) Snapshot() ([]byte, error) {
	var b checkpoint.Buf
	b.Uint8(deltaTag)
	b.Int64(int64(t.n))
	b.Bool(t.pending)
	putTime(&b, t.gap.last)
	for _, v := range t.prev {
		b.Float64(v)
	}
	for _, v := range t.cur {
		b.Float64(v)
	}
	return b.Bytes(), nil
}

func (t *deltaTransformer) Restore(data []byte) error {
	r := checkpoint.NewRBuf(data)
	if r.Uint8() != deltaTag {
		return ErrBadSnapshot
	}
	n := r.Int64()
	pending := r.Bool()
	last := getTime(r)
	var prev, cur [obd.NumPIDs]float64
	for i := range prev {
		prev[i] = r.Float64()
	}
	for i := range cur {
		cur[i] = r.Float64()
	}
	if err := r.Close(); err != nil {
		return err
	}
	if n < 0 {
		return ErrBadSnapshot
	}
	t.n = int(n)
	t.pending = pending
	t.gap.last = last
	t.prev = prev
	t.cur = cur
	return nil
}

// Snapshot writes the embedding transform's tag, the gap-guard clock
// and the buffered records oldest-first.
func (w *windowed) Snapshot() ([]byte, error) {
	var b checkpoint.Buf
	b.Uint8(w.tag)
	putTime(&b, w.gap.last)
	recs := w.win.Records()
	b.Int(len(recs))
	for _, rec := range recs {
		putRecord(&b, rec)
	}
	return b.Bytes(), nil
}

// Restore replays the buffered records into the emptied window; ring
// rotation is not observable, so re-pushing oldest-first reproduces
// identical behaviour.
func (w *windowed) Restore(data []byte) error {
	r := checkpoint.NewRBuf(data)
	if r.Uint8() != w.tag {
		return ErrBadSnapshot
	}
	gapLast := getTime(r)
	n := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if n < 0 {
		return ErrBadSnapshot
	}
	recs := make([]timeseries.Record, n)
	for i := range recs {
		recs[i] = getRecord(r)
	}
	if err := r.Close(); err != nil {
		return err
	}
	w.win.Reset()
	for _, rec := range recs {
		w.win.Push(rec)
	}
	w.gap.last = gapLast
	return nil
}
