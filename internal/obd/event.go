package obd

import (
	"fmt"
	"time"
)

// EventType classifies maintenance events of interest. The paper's key
// distinction: repairs are urgent, non-periodic maintenance ("failures"
// in the evaluation), services are scheduled maintenance, and DTC events
// are ECU code emissions.
type EventType int

const (
	// EventService is a standard periodic service.
	EventService EventType = iota
	// EventRepair is an unscheduled repair; the 30/15-day window before
	// it is the failure state the detectors must flag.
	EventRepair
	// EventDTC is a diagnostic trouble code emission.
	EventDTC
)

// String implements fmt.Stringer.
func (t EventType) String() string {
	switch t {
	case EventService:
		return "service"
	case EventRepair:
		return "repair"
	case EventDTC:
		return "dtc"
	default:
		return fmt.Sprintf("EventType(%d)", int(t))
	}
}

// ParseEventType is the inverse of EventType.String for the three
// defined types.
func ParseEventType(s string) (EventType, error) {
	for t := EventService; t <= EventDTC; t++ {
		if s == t.String() {
			return t, nil
		}
	}
	return 0, fmt.Errorf("obd: unknown event type %q", s)
}

// Event is a recorded maintenance or diagnostic occurrence on a vehicle.
type Event struct {
	VehicleID string
	Time      time.Time
	Type      EventType
	DTC       *DTC   // non-nil only for EventDTC
	Note      string // free-text description (e.g. repaired component)
}

// String renders the event compactly for logs.
func (e Event) String() string {
	s := fmt.Sprintf("%s %s %s", e.Time.Format("2006-01-02"), e.VehicleID, e.Type)
	if e.DTC != nil {
		s += " " + e.DTC.Code
	}
	if e.Note != "" {
		s += " (" + e.Note + ")"
	}
	return s
}

// IsReset reports whether the event should trigger a reference-profile
// reset under the paper's default policy (step 2 of the framework):
// services and repairs both imply "the vehicle operates normally
// afterwards".
func (e Event) IsReset() bool {
	return e.Type == EventService || e.Type == EventRepair
}
