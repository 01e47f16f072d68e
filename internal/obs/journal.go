package obs

import (
	"io"
	"time"
)

// AlarmEvent is one alarm-lifecycle journal entry: the full detection
// context at the moment an alarm fired, recorded so the alarm is
// explainable after the fact. Fleet-level condition monitoring
// (Hendrickx et al.) and PH-based evaluation (Carrasco et al.) both
// stress that per-asset context — reference state, score trajectory,
// threshold at alarm time — is what makes an alarm actionable; this is
// that context as a first-class artifact.
type AlarmEvent struct {
	// Seq is the journal-assigned monotone sequence number.
	Seq uint64 `json:"seq"`
	// Time is the record timestamp that raised the alarm.
	Time time.Time `json:"time"`
	// VehicleID is the alarming vehicle.
	VehicleID string `json:"vehicle"`
	// Technique is the detector's canonical name ("closest-pair", ...).
	Technique string `json:"technique"`
	// Transform is the transformation's canonical name ("correlation", ...).
	Transform string `json:"transform"`
	// Feature is the violated score channel's human-readable label.
	Feature string `json:"feature"`
	// Channel is the violated score channel index.
	Channel int `json:"channel"`
	// Score is the offending anomaly score.
	Score float64 `json:"score"`
	// Threshold is the live threshold value the score violated.
	Threshold float64 `json:"threshold"`
	// RefLen and RefCap are the reference profile's fill level and
	// configured length. While detecting RefLen == RefCap; an entry can
	// only exist with a fitted profile.
	RefLen int `json:"ref_len"`
	RefCap int `json:"ref_cap"`
	// RefAge is the number of samples scored under the current fit —
	// how stale the reference profile is, in samples.
	RefAge uint64 `json:"ref_age_samples"`
	// SinceLastEventS is the time in seconds since the vehicle's last
	// profile-resetting maintenance event (0 when no event has been
	// seen: the vehicle is still on its initial profile).
	SinceLastEventS float64 `json:"since_last_event_s"`

	// Provenance (zero-valued and omitted when the alarming record was
	// not ingested under a BatchCtx — e.g. plain Replay). BatchID is the
	// receiver-assigned ingest batch, TraceID the producer-assigned wire
	// trace context (0 when the frame carried none), ArrivalTime when
	// the frame hit the process, QueueWaitS how long the batch sat in
	// its shard queue, and E2ELatencyS wire arrival to this alarm.
	BatchID     uint64    `json:"batch_id,omitempty"`
	TraceID     uint64    `json:"trace_id,omitempty"`
	ArrivalTime time.Time `json:"arrival_time,omitzero"`
	QueueWaitS  float64   `json:"queue_wait_s,omitempty"`
	E2ELatencyS float64   `json:"e2e_latency_s,omitempty"`
}

func (e *AlarmEvent) setSeq(seq uint64) { e.Seq = seq }
func (e *AlarmEvent) vehicle() string   { return e.VehicleID }

// Journal is a bounded structured ring of alarm events. Appends and
// reads are guarded by a mutex — alarms are rare next to scored
// samples, so the journal is never on the allocation-free hot path.
// An optional sink receives every entry as one JSON line.
type Journal struct {
	r ring[AlarmEvent, *AlarmEvent]
}

// NewJournal returns a journal retaining the last capacity entries
// (default 256 when capacity <= 0).
func NewJournal(capacity int) *Journal {
	j := &Journal{}
	j.r.init(capacity)
	return j
}

// SetSink attaches a writer that receives every appended entry as one
// JSON line (pass nil to detach). Sink errors are ignored: journaling
// must never fail the detection path.
func (j *Journal) SetSink(w io.Writer) { j.r.setSink(w) }

// Append records one alarm event, assigning its sequence number.
func (j *Journal) Append(e AlarmEvent) { j.r.append(e) }

// Total returns how many entries have ever been appended.
func (j *Journal) Total() uint64 { return j.r.total() }

// LastFor returns up to n most recent retained entries for one vehicle,
// oldest first (n <= 0 means all retained).
func (j *Journal) LastFor(vehicleID string, n int) []AlarmEvent { return j.r.lastFor(vehicleID, n) }

// Last returns up to n most recent entries, oldest first.
func (j *Journal) Last(n int) []AlarmEvent { return j.r.last(n) }
