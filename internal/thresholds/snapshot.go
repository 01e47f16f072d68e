package thresholds

import (
	"errors"

	"github.com/navarchos/pdm/internal/checkpoint"
)

// ErrBadSnapshot is returned when a snapshot payload does not decode as
// state for this thresholder type.
var ErrBadSnapshot = errors.New("thresholds: malformed snapshot")

// selfTuningTag and constantTag guard against restoring one
// thresholder type's bytes into another.
const (
	selfTuningTag = uint8(1)
	constantTag   = uint8(2)
)

// Snapshot writes the per-channel fitted thresholds (Factor is
// configuration and stays with the constructor).
func (s *SelfTuning) Snapshot() ([]byte, error) {
	var b checkpoint.Buf
	b.Uint8(selfTuningTag)
	b.Bool(s.values != nil)
	b.Float64s(s.values)
	return b.Bytes(), nil
}

func (s *SelfTuning) Restore(data []byte) error {
	r := checkpoint.NewRBuf(data)
	if r.Uint8() != selfTuningTag {
		return ErrBadSnapshot
	}
	fitted := r.Bool()
	values := r.Float64s()
	if err := r.Close(); err != nil {
		return err
	}
	if fitted && values == nil {
		// A fitted thresholder always has at least one channel; an
		// empty fitted snapshot means the payload was hand-rolled.
		return ErrBadSnapshot
	}
	if !fitted {
		s.values = nil
		return nil
	}
	s.values = values
	return nil
}

// Snapshot writes the channel count learned at Calibrate, the only mutable
// state (Value is configuration).
func (c *Constant) Snapshot() ([]byte, error) {
	var b checkpoint.Buf
	b.Uint8(constantTag)
	b.Int(c.channels)
	return b.Bytes(), nil
}

func (c *Constant) Restore(data []byte) error {
	r := checkpoint.NewRBuf(data)
	if r.Uint8() != constantTag {
		return ErrBadSnapshot
	}
	channels := r.Int()
	if err := r.Close(); err != nil {
		return err
	}
	if channels < 0 {
		return ErrBadSnapshot
	}
	c.channels = channels
	return nil
}
