package transform

import (
	"errors"
	"fmt"

	"github.com/navarchos/pdm/internal/checkpoint"
	"github.com/navarchos/pdm/internal/obd"
)

// ErrBadSnapshot is returned when a snapshot payload does not decode as
// state for this transformer kind and configuration.
var ErrBadSnapshot = errors.New("transform: malformed snapshot")

// Per-kind payload tags: restoring a delta snapshot into a correlation
// transformer must fail loudly, not bend state. Tags 5 and 6 were the
// histogram and spectral transforms, since removed, tag 1 was the
// correlation layout that carried an eviction ring and tag 4 the mean
// layout that carried the window's records: they must never be reused,
// so a snapshot one of them wrote fails to restore by name.
const (
	corrTag  = uint8(7)
	rawTag   = uint8(2)
	deltaTag = uint8(3)
	meanTag  = uint8(8)
)

// checkTag reads a payload's tag and refuses one that is not want,
// naming both.
func checkTag(r *checkpoint.RBuf, want uint8) error {
	if got := r.Uint8(); got != want {
		return fmt.Errorf("%w: tag %d, want %d", ErrBadSnapshot, got, want)
	}
	return nil
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

// Snapshot writes the window, the record count, the gap-guard clock
// and the running sums.
func (t *meanTransformer) Snapshot() ([]byte, error) {
	var b checkpoint.Buf
	b.Uint8(meanTag)
	b.Int(t.window)
	b.Int(t.n)
	b.Time(t.gap.last)
	for _, v := range t.sum {
		b.Float64(v)
	}
	return b.Bytes(), nil
}

func (t *meanTransformer) Restore(data []byte) error {
	r := checkpoint.NewRBuf(data)
	if err := checkTag(r, meanTag); err != nil {
		return err
	}
	if r.Int() != t.window {
		return ErrBadSnapshot // snapshot from a differently configured window
	}
	n := r.Int()
	last := r.Time()
	var sum [obd.NumPIDs]float64
	for i := range sum {
		sum[i] = r.Float64()
	}
	if n < 0 || n > t.window {
		return ErrBadSnapshot
	}
	if err := r.Close(); err != nil {
		return err
	}
	t.n = n
	t.gap.last = last
	t.sum = sum
	return nil
}
