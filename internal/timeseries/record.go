// Package timeseries provides the record and aggregation machinery
// shared by the data transformations and the detection pipeline:
// timestamped multivariate samples, per-day aggregates for the
// exploratory analysis, and the stationary-state / sensor-fault filters
// the paper applies before every transformation (Section 3.2).
package timeseries

import (
	"errors"
	"time"

	"github.com/navarchos/pdm/internal/checkpoint"
	"github.com/navarchos/pdm/internal/obd"
)

// Record is one multivariate PID measurement from one vehicle, sampled
// at one-minute frequency while the vehicle operates.
type Record struct {
	VehicleID string
	Time      time.Time
	Values    [obd.NumPIDs]float64
}

// Value returns the measurement for PID p.
func (r *Record) Value(p obd.PID) float64 { return r.Values[p] }

// Slice returns the values as a freshly allocated []float64 in PID order.
func (r *Record) Slice() []float64 {
	out := make([]float64, obd.NumPIDs)
	copy(out, r.Values[:])
	return out
}

// IsStationary reports whether the record corresponds to the stationary
// state of the vehicle: engine off or idling with no road speed. The
// paper filters these out before transforming data because correlations
// computed over idle periods carry no information about driving
// behaviour.
func (r *Record) IsStationary() bool {
	return r.Values[obd.Speed] < 3 && r.Values[obd.EngineRPM] < 950
}

// HasSensorFault reports whether any PID value is outside its physically
// plausible envelope, indicating a sensor or transmission fault that
// must be dropped rather than scored.
func (r *Record) HasSensorFault() bool {
	for p := obd.PID(0); p < obd.NumPIDs; p++ {
		if !obd.InEnvelope(p, r.Values[p]) {
			return true
		}
	}
	return false
}

// CleanFilter reports whether the record should be kept for analysis:
// non-stationary and free of sensor faults.
func CleanFilter(r *Record) bool {
	return !r.IsStationary() && !r.HasSensorFault()
}

// WarmupFilter is a STATEFUL filter that combines CleanFilter with
// cold-start suppression: after any gap longer than tripGap in the
// kept stream, the next skip records are dropped. Engine warm-up
// transients (coolant climbing to its setpoint, heat-soaked intake air)
// dominate cross-signal correlations for the first minutes of a trip and
// would otherwise pollute both the reference profile and the scored
// stream. The filter is per-vehicle state; build a fresh one per
// pipeline. skip and tripGap are configuration; the last-seen timestamp
// and the countdown are mutable state exposed through Snapshot/Restore
// so a checkpointed pipeline resumes mid-trip without re-suppressing
// warm records.
type WarmupFilter struct {
	skip    int
	tripGap time.Duration

	last      time.Time
	remaining int
}

// NewWarmupFilter builds a warm-up filter; pass its Keep method as a
// pipeline Filter (and the filter itself as FilterState to make the
// pipeline snapshottable).
func NewWarmupFilter(skip int, tripGap time.Duration) *WarmupFilter {
	return &WarmupFilter{skip: skip, tripGap: tripGap, remaining: skip}
}

// Keep reports whether the record survives cleaning and warm-up
// suppression, advancing the trip state.
func (f *WarmupFilter) Keep(r *Record) bool {
	if !CleanFilter(r) {
		return false
	}
	if f.last.IsZero() || r.Time.Sub(f.last) > f.tripGap {
		f.remaining = f.skip
	}
	f.last = r.Time
	if f.remaining > 0 {
		f.remaining--
		return false
	}
	return true
}

// ErrBadSnapshot is returned when a payload does not decode as warm-up
// filter state for this configuration.
var ErrBadSnapshot = errors.New("timeseries: malformed warmup filter snapshot")

// warmupFilterTag types WarmupFilter snapshot payloads.
const warmupFilterTag = uint8(30)

// Snapshot captures the filter's mutable state (trip position), not its
// configuration.
func (f *WarmupFilter) Snapshot() ([]byte, error) {
	var b checkpoint.Buf
	b.Uint8(warmupFilterTag)
	b.Bool(!f.last.IsZero())
	var nanos int64
	if !f.last.IsZero() {
		nanos = f.last.UnixNano()
	}
	b.Int64(nanos)
	b.Int(f.remaining)
	return b.Bytes(), nil
}

// Restore loads a snapshot taken from a filter with the same
// configuration.
func (f *WarmupFilter) Restore(data []byte) error {
	r := checkpoint.NewRBuf(data)
	if r.Uint8() != warmupFilterTag {
		return ErrBadSnapshot
	}
	hasLast := r.Bool()
	nanos := r.Int64()
	remaining := r.Int()
	if err := r.Close(); err != nil {
		return err
	}
	if remaining < 0 || remaining > f.skip {
		return ErrBadSnapshot
	}
	if hasLast {
		f.last = time.Unix(0, nanos).UTC()
	} else {
		f.last = time.Time{}
	}
	f.remaining = remaining
	return nil
}

// FilterRecords returns the subset of records for which keep returns
// true, preserving order. A nil keep function keeps everything.
func FilterRecords(recs []Record, keep func(*Record) bool) []Record {
	if keep == nil {
		out := make([]Record, len(recs))
		copy(out, recs)
		return out
	}
	out := make([]Record, 0, len(recs))
	for i := range recs {
		if keep(&recs[i]) {
			out = append(out, recs[i])
		}
	}
	return out
}
