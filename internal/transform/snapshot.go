package transform

import (
	"errors"
	"fmt"

	"github.com/navarchos/pdm/internal/checkpoint"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/timeseries"
)

// ErrBadSnapshot is returned when a snapshot payload does not decode as
// state for this transformer kind and configuration.
var ErrBadSnapshot = errors.New("transform: malformed snapshot")

// Per-kind payload tags: restoring a delta snapshot into a correlation
// transformer must fail loudly, not bend state. Tags 5 and 6 were the
// histogram and spectral transforms, since removed, and tag 1 was the
// correlation layout that carried an eviction ring: they must never be
// reused, so a snapshot one of them wrote fails to restore by name.
const (
	corrTag  = uint8(7)
	rawTag   = uint8(2)
	deltaTag = uint8(3)
	meanTag  = uint8(4)
)

// checkTag reads a payload's tag and refuses one that is not want,
// naming both.
func checkTag(r *checkpoint.RBuf, want uint8) error {
	if got := r.Uint8(); got != want {
		return fmt.Errorf("%w: tag %d, want %d", ErrBadSnapshot, got, want)
	}
	return nil
}

// putRecord serialises one raw record (for buffered windows).
func putRecord(b *checkpoint.Buf, rec timeseries.Record) {
	b.String(rec.VehicleID)
	b.Time(rec.Time)
	for _, v := range rec.Values {
		b.Float64(v)
	}
}

// getRecord reads a putRecord record.
func getRecord(r *checkpoint.RBuf) timeseries.Record {
	var rec timeseries.Record
	rec.VehicleID = r.String()
	rec.Time = r.Time()
	for i := range rec.Values {
		rec.Values[i] = r.Float64()
	}
	return rec
}

// Snapshot writes the window's running moments and the gap-guard clock.
func (c *corrTransformer) Snapshot() ([]byte, error) {
	var b checkpoint.Buf
	b.Uint8(corrTag)
	b.Int(c.window)
	b.Int(c.n)
	b.Time(c.gap.last)
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
	return b.Bytes(), nil
}

func (c *corrTransformer) Restore(data []byte) error {
	r := checkpoint.NewRBuf(data)
	if err := checkTag(r, corrTag); err != nil {
		return err
	}
	if r.Int() != c.window {
		return ErrBadSnapshot // snapshot from a differently configured window
	}
	n := r.Int()
	last := r.Time()
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
	if err := r.Close(); err != nil {
		return err
	}
	c.n = n
	c.gap.last = last
	c.shift = shift
	c.sum = sum
	c.prod = prod
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
	if err := checkTag(r, rawTag); err != nil {
		return err
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
	b.Time(t.gap.last)
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
	if err := checkTag(r, deltaTag); err != nil {
		return err
	}
	n := r.Int64()
	pending := r.Bool()
	last := r.Time()
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

// Snapshot writes the tag, the gap-guard clock, the record count and
// the buffered records oldest-first.
func (t *meanTransformer) Snapshot() ([]byte, error) {
	var b checkpoint.Buf
	b.Uint8(meanTag)
	b.Time(t.gap.last)
	recs := t.win.Records()
	b.Int(len(recs))
	for _, rec := range recs {
		putRecord(&b, rec)
	}
	return b.Bytes(), nil
}

// Restore replays the buffered records into the emptied window; ring
// rotation is not observable, so re-pushing oldest-first reproduces
// identical behaviour. A count the window cannot hold is refused before
// anything is allocated for it.
func (t *meanTransformer) Restore(data []byte) error {
	r := checkpoint.NewRBuf(data)
	if err := checkTag(r, meanTag); err != nil {
		return err
	}
	gapLast := r.Time()
	n := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if n < 0 || n > t.window {
		return ErrBadSnapshot
	}
	recs := make([]timeseries.Record, n)
	for i := range recs {
		recs[i] = getRecord(r)
	}
	if err := r.Close(); err != nil {
		return err
	}
	t.win.Reset()
	for _, rec := range recs {
		t.win.Push(rec)
	}
	t.gap.last = gapLast
	return nil
}
