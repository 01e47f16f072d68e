package obs

import (
	"io"
	"time"
)

// Control-plane event kinds recorded in the EventLog. The set is
// closed on purpose: each kind maps to one labelled series of
// pdm_ctrl_events_total, so free-form kinds would leak cardinality.
const (
	EventDrainStart   = "drain-start"   // per-vehicle drain began
	EventDrainFinish  = "drain-finish"  // per-vehicle drain landed on the target
	EventDrainAbort   = "drain-abort"   // per-vehicle drain failed; state restored
	EventCordon       = "cordon"        // operator or drain fence raised
	EventUncordon     = "uncordon"      // fence lowered
	EventAdopt        = "adopt"         // vehicle state adopted from a peer
	EventPeerConflict = "peer-conflict" // peer refused a handoff (409 split-brain rule)
)

// ControlEvent is one control-plane lifecycle entry: who did what to
// which vehicle or engine, when, and how long it took. It is the
// drain/cordon/adoption counterpart of the alarm Journal's AlarmEvent —
// the audit trail an operator replays to answer "why is this vehicle
// served here now?".
type ControlEvent struct {
	// Seq is the log-assigned monotone sequence number.
	Seq uint64 `json:"seq"`
	// Time is when the event was recorded.
	Time time.Time `json:"time"`
	// Kind is one of the Event* constants.
	Kind string `json:"kind"`
	// Engine is the member the event happened on (source engine for
	// drains and handoffs).
	Engine string `json:"engine,omitempty"`
	// Peer is the counterpart member (drain target, adoption source,
	// refusing peer), when the event involves two engines.
	Peer string `json:"peer,omitempty"`
	// VehicleID is set for per-vehicle events (drain, adopt, conflict).
	VehicleID string `json:"vehicle,omitempty"`
	// Detail carries free-form context (HTTP status, probe error, ...).
	Detail string `json:"detail,omitempty"`
	// DurationS is the event duration in seconds where one is
	// meaningful (drain-finish, adopt), else 0.
	DurationS float64 `json:"duration_s,omitempty"`
}

func (e *ControlEvent) setSeq(seq uint64) { e.Seq = seq }
func (e *ControlEvent) vehicle() string   { return e.VehicleID }

// EventLog is a bounded structured ring of control-plane events with
// the same shape and guarantees as the alarm Journal: mutex-guarded
// appends and reads, an optional JSONL sink whose errors are ignored,
// and O(capacity) reads. Every method is safe on a nil receiver so
// call sites need no log-enabled branch.
//
// When built with a Registry it also counts every append into
// pdm_ctrl_events_total labelled by kind.
type EventLog struct {
	r   ring[ControlEvent, *ControlEvent]
	reg *Registry
}

// NewEventLog returns an event log retaining the last capacity entries
// (default 256 when capacity <= 0). reg may be nil — the log then only
// retains, without exporting counters.
func NewEventLog(capacity int, reg *Registry) *EventLog {
	l := &EventLog{reg: reg}
	l.r.init(capacity)
	return l
}

// SetSink attaches a writer that receives every recorded event as one
// JSON line (pass nil to detach). Sink errors are ignored: auditing
// must never fail the control plane.
func (l *EventLog) SetSink(w io.Writer) {
	if l != nil {
		l.r.setSink(w)
	}
}

// Record appends one event, assigning its sequence number and stamping
// Time when the caller left it zero.
func (l *EventLog) Record(e ControlEvent) {
	if l == nil {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	l.r.append(e)
	if l.reg != nil {
		// Registration is idempotent: this resolves the kind's series.
		l.reg.Counter("pdm_ctrl_events_total",
			"Control-plane lifecycle events recorded in the event log, per kind.",
			Label{Key: "kind", Value: e.Kind}).Inc()
	}
}

// Total returns how many events have ever been recorded.
func (l *EventLog) Total() uint64 {
	if l == nil {
		return 0
	}
	return l.r.total()
}

// Last returns up to n most recent events, oldest first (n <= 0 means
// all retained).
func (l *EventLog) Last(n int) []ControlEvent {
	if l == nil {
		return nil
	}
	return l.r.last(n)
}

// LastFor returns up to n most recent retained events touching one
// vehicle, oldest first (n <= 0 means all retained).
func (l *EventLog) LastFor(vehicleID string, n int) []ControlEvent {
	if l == nil {
		return nil
	}
	return l.r.lastFor(vehicleID, n)
}
