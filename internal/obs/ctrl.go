package obs

import "time"

// CtrlMetrics is the control-plane instrumentation family: vehicle
// handoffs and their latency. It sits above the per-engine families —
// the fleet/ingest metrics say how one engine is doing, this family
// says how vehicles move *between* engines — so a drain that stalls
// shows up on its own dial instead of as unexplained per-engine churn.
type CtrlMetrics struct {
	// Handoffs counts completed vehicle migrations (extract on the
	// source + adopt on the target).
	Handoffs *Counter
	// HandoffH observes wall-clock migration time per vehicle, in
	// seconds: cordon + owning-shard quiesce + snapshot + adopt.
	HandoffH *Histogram
}

// NewCtrlMetrics registers the control-plane metric families in reg.
func NewCtrlMetrics(reg *Registry) *CtrlMetrics {
	return &CtrlMetrics{
		Handoffs: reg.Counter("pdm_ctrl_handoffs_total",
			"Completed vehicle handoffs (extract + adopt) between engines."),
		HandoffH: reg.Histogram("pdm_ctrl_handoff_seconds",
			"Per-vehicle handoff latency: cordon, shard quiesce, snapshot, adopt.", DefLatencyBuckets),
	}
}

// ObserveHandoff records one completed vehicle migration.
func (m *CtrlMetrics) ObserveHandoff(d time.Duration) {
	if m == nil {
		return
	}
	m.Handoffs.Inc()
	m.HandoffH.Observe(d.Seconds())
}
