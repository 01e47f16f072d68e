// Package eval implements the paper's evaluation protocol (Section 4):
// prediction-horizon-based true/false-positive accounting, the F0.5
// headline metric, daily alarm consolidation, and the grid runner that
// sweeps technique × transformation × threshold × setting and reproduces
// Figures 4–7 and Tables 1–3.
package eval

import (
	"slices"
	"time"

	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/obd"
)

// Metrics aggregates detection quality over a set of vehicles.
type Metrics struct {
	TP            int // failures with at least one alarm inside PH
	FP            int // alarms (after consolidation) outside every PH
	TotalFailures int

	Precision float64
	Recall    float64
	F1        float64
	F05       float64
}

// FBeta computes the Fβ score from precision and recall (0 when both are
// 0).
func FBeta(precision, recall, beta float64) float64 {
	b2 := beta * beta
	den := b2*precision + recall
	if den == 0 {
		return 0
	}
	return (1 + b2) * precision * recall / den
}

// Evaluate scores alarms against recorded failures using the paper's
// protocol at prediction horizon ph: per vehicle, a Horizon fed in time
// order and closed at +∞, so the counts do not depend on the order
// either list comes in. Callers normally consolidate alarms (see
// ConsolidateDaily) first, mirroring the day-level alarm row at the
// bottom of the paper's Figure 8.
func Evaluate(alarms []detector.Alarm, failures []obd.Event, ph time.Duration) Metrics {
	var m Metrics
	for _, c := range byVehicle(alarms, Repairs(failures), ph) {
		m.add(c)
	}
	return m.scored()
}

// Repairs returns each vehicle's repair times, ascending.
func Repairs(events []obd.Event) map[string][]time.Time {
	out := map[string][]time.Time{}
	for _, ev := range events {
		if ev.Type == obd.EventRepair {
			out[ev.VehicleID] = append(out[ev.VehicleID], ev.Time)
		}
	}
	for _, rs := range out {
		slices.SortFunc(rs, time.Time.Compare)
	}
	return out
}

// byVehicle folds each vehicle's alarms, stable-sorted by time, and its
// repairs through a Horizon at ph, for every vehicle with either.
func byVehicle(alarms []detector.Alarm, repairs map[string][]time.Time, ph time.Duration) map[string]Metrics {
	grouped := map[string][]detector.Alarm{}
	for _, a := range alarms {
		grouped[a.VehicleID] = append(grouped[a.VehicleID], a)
	}
	for v := range repairs {
		if _, ok := grouped[v]; !ok {
			grouped[v] = nil
		}
	}
	out := make(map[string]Metrics, len(grouped))
	for v, as := range grouped {
		slices.SortStableFunc(as, func(a, b detector.Alarm) int { return a.Time.Compare(b.Time) })
		out[v] = (&Horizon{PH: ph}).Fold(as, repairs[v])
	}
	return out
}

// sum scores the summed counts of the given vehicles, each counted once.
func sum(counts map[string]Metrics, vehicles []string) Metrics {
	seen := map[string]bool{}
	var m Metrics
	for _, v := range vehicles {
		if !seen[v] {
			seen[v] = true
			m.add(counts[v])
		}
	}
	return m.scored()
}

// add sums o's counts into m; the ratios come from the totals (scored).
func (m *Metrics) add(o Metrics) {
	m.TP += o.TP
	m.FP += o.FP
	m.TotalFailures += o.TotalFailures
}

// scored returns m with its ratios derived from its counts.
func (m Metrics) scored() Metrics {
	if m.TP+m.FP > 0 {
		m.Precision = float64(m.TP) / float64(m.TP+m.FP)
	}
	if m.TotalFailures > 0 {
		m.Recall = float64(m.TP) / float64(m.TotalFailures)
	}
	m.F1 = FBeta(m.Precision, m.Recall, 1)
	m.F05 = FBeta(m.Precision, m.Recall, 0.5)
	return m
}

// Horizon is the paper's prediction-horizon rule for one vehicle, and
// the one place it is written. Fed the vehicle's alarms and repairs in
// time order, an alarm before a repair at the same instant, and its data
// clock, it settles every alarm and every failure:
//   - an alarm at a is a true positive once a repair arrives in [a, a+PH);
//   - it is a false positive once the clock reaches a+PH with no such repair;
//   - a failure at r is detected if an alarm lies in (r−PH, r].
//
// It keeps only the unsettled alarms of the last PH.
type Horizon struct {
	PH time.Duration
	// Settled, when non-nil, is told each alarm's outcome as it
	// settles, in the order the alarms were fed.
	Settled func(tp bool)

	pending []time.Time // unsettled alarms, ascending
	last    time.Time   // the latest alarm; zero, outside every horizon, before one
	m       Metrics     // TP, FP and TotalFailures so far
}

// inside reports whether the horizon of an alarm at a still holds t.
func (h *Horizon) inside(a, t time.Time) bool { return a.Add(h.PH).After(t) }

// Advance moves the clock to t: pending alarms whose horizon has passed
// settle as false positives.
func (h *Horizon) Advance(t time.Time) {
	n := 0
	for n < len(h.pending) && !h.inside(h.pending[n], t) {
		n++
	}
	h.settle(n, false)
}

// Alarm takes an alarm at t.
func (h *Horizon) Alarm(t time.Time) {
	h.Advance(t)
	h.pending = append(h.pending, t)
	h.last = t
}

// Repair takes a failure at t, detected if the latest alarm lies within
// PH before it; every pending alarm settles as a true positive.
func (h *Horizon) Repair(t time.Time) {
	h.Advance(t)
	h.m.TotalFailures++
	if h.inside(h.last, t) {
		h.m.TP++
	}
	h.settle(len(h.pending), true)
}

// Close settles what is pending as with the clock at +∞ and returns the
// counts, ratios unset.
func (h *Horizon) Close() Metrics {
	h.settle(len(h.pending), false)
	return h.m
}

// Fold feeds one vehicle's alarms and repair times, each ascending, and
// closes the machine.
func (h *Horizon) Fold(alarms []detector.Alarm, repairs []time.Time) Metrics {
	i := 0
	for _, r := range repairs {
		for ; i < len(alarms) && !alarms[i].Time.After(r); i++ {
			h.Alarm(alarms[i].Time)
		}
		h.Repair(r)
	}
	for ; i < len(alarms); i++ {
		h.Alarm(alarms[i].Time)
	}
	return h.Close()
}

// settle takes the n oldest pending alarms off with the given outcome.
func (h *Horizon) settle(n int, tp bool) {
	if !tp {
		h.m.FP += n
	}
	for i := 0; h.Settled != nil && i < n; i++ {
		h.Settled(tp)
	}
	h.pending = h.pending[:copy(h.pending, h.pending[n:])]
}

// ConsolidateDaily collapses alarms to at most one per vehicle per UTC
// day, keeping the first. Streaming detectors can fire on many
// consecutive samples for one behavioural change; operationally (and in
// the paper's Figure 8) those are one day-level alert.
func ConsolidateDaily(alarms []detector.Alarm) []detector.Alarm {
	type key struct {
		vehicle string
		day     int64
	}
	seen := map[key]bool{}
	var out []detector.Alarm
	for _, a := range alarms {
		k := key{a.VehicleID, a.Time.UTC().Truncate(24 * time.Hour).Unix()}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, a)
	}
	return out
}
