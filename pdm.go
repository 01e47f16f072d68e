// Package pdm is an unsupervised anomaly-detection library for vehicle
// predictive maintenance with partial information, reproducing
// Giannoulidis, Gounaris & Constantinou (EDBT 2024).
//
// The library detects behavioural change that precedes vehicle failures
// from six OBD-II PID signals and a partial maintenance-event log,
// without labels and without relying on Diagnostic Trouble Codes. Its
// three-step framework is:
//
//  1. transform raw records into a space where failure-related change is
//     visible (Transformer; the paper's winner is the pairwise
//     correlation transform),
//  2. maintain a dynamic reference profile Ref of assumed-healthy
//     behaviour, rebuilt after every service or repair event,
//  3. score new transformed samples against Ref with an unsupervised
//     detector (Detector; closest-pair, Grand, TranAD-style
//     reconstruction or gradient-boosted regression), raising alarms on
//     self-tuning threshold violations.
//
// Quick start (the paper's complete solution, Algorithm 1):
//
//	p, err := pdm.NewDefaultPipeline("veh-01")
//	...
//	for each incoming event:   p.HandleEvent(ev)
//	for each incoming record:  alarms, err := p.HandleRecord(rec)
//
// The public API re-exports the library's building blocks so downstream
// users never import internal packages directly. A deterministic
// synthetic fleet generator (NewFleet) stands in for the paper's
// proprietary Navarchos dataset; see DESIGN.md for the substitution
// rationale.
package pdm

import (
	"io"
	"net/http"
	"time"

	"github.com/navarchos/pdm/internal/core"
	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/detector/closestpair"
	"github.com/navarchos/pdm/internal/detector/grand"
	"github.com/navarchos/pdm/internal/detector/regress"
	"github.com/navarchos/pdm/internal/eval"
	"github.com/navarchos/pdm/internal/fleet"
	"github.com/navarchos/pdm/internal/fleetsim"
	"github.com/navarchos/pdm/internal/gbt"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/obs"
	"github.com/navarchos/pdm/internal/thresholds"
	"github.com/navarchos/pdm/internal/timeseries"
	"github.com/navarchos/pdm/internal/transform"
)

// Core data types.
type (
	// Record is one multivariate PID measurement from one vehicle.
	Record = timeseries.Record
	// Event is a maintenance or diagnostic event (service, repair, DTC).
	Event = obd.Event
	// PID identifies one of the six monitored OBD-II parameters.
	PID = obd.PID
	// Alarm is an emitted anomaly alert with its explanation.
	Alarm = detector.Alarm
)

// The six PIDs, re-exported in canonical order.
const (
	EngineRPM      = obd.EngineRPM
	Speed          = obd.Speed
	CoolantTemp    = obd.CoolantTemp
	IntakeTemp     = obd.IntakeTemp
	MAPIntake      = obd.MAPIntake
	MAFAirFlowRate = obd.MAFAirFlowRate
	NumPIDs        = obd.NumPIDs
)

// Event types.
const (
	EventService = obd.EventService
	EventRepair  = obd.EventRepair
	EventDTC     = obd.EventDTC
)

// Framework types (step 1–3 of the paper's framework).
type (
	// Transformer is the step-1 data transformation interface: Collect,
	// Ready and EmitInto stream it, Snapshot/Restore checkpoint it.
	Transformer = transform.Transformer
	// TransformKind selects a built-in transformation.
	TransformKind = transform.Kind
	// Detector is the step-3 unsupervised scoring interface.
	Detector = detector.Detector
	// Thresholder decides when scores become alarms; Snapshot/Restore
	// checkpoint its fitted thresholds.
	Thresholder = thresholds.Thresholder
	// Pipeline is the streaming per-vehicle realisation of Algorithm 1.
	Pipeline = core.Pipeline
	// PipelineConfig assembles a Pipeline.
	PipelineConfig = core.Config
	// ResetPolicy selects which events rebuild the reference profile.
	ResetPolicy = core.ResetPolicy
	// Trace records per-sample scoring history for visualisation.
	Trace = core.Trace
)

// Transformation kinds.
const (
	Correlation = transform.Correlation
	Raw         = transform.Raw
	Delta       = transform.Delta
	MeanAgg     = transform.MeanAgg
)

// Reset policies.
const (
	ResetOnAllEvents   = core.ResetOnAllEvents
	ResetOnRepairsOnly = core.ResetOnRepairsOnly
)

// NewTransformer constructs a built-in transformer. window is the
// tumbling-window length in records for the windowed kinds; pass 0 for
// the default.
func NewTransformer(kind TransformKind, window int) (Transformer, error) {
	return transform.New(kind, window)
}

// NewClosestPair returns the paper's winning detector: per-feature
// nearest-value distance against the reference profile.
func NewClosestPair(featureNames []string) Detector {
	return closestpair.New(featureNames)
}

// GrandConfig parametrises NewGroupDeviation's Grand detector: its
// measure and martingale window. The neighbourhood size (10) and the
// martingale exponent (0.92) are constants.
type GrandConfig = grand.Config

// Grand non-conformity measures.
const (
	GrandMedian = grand.Median
	GrandKNN    = grand.KNN
	GrandLOF    = grand.LOF
)

// GroupDeviation is the ORIGINAL fleet-level Grand strategy ("wisdom of
// the crowd"): each vehicle is scored against its peers over calendar
// windows. The paper explains why it suits homogeneous fleets but not
// the heterogeneous Navarchos one; having it exported makes that
// argument testable.
type GroupDeviation = grand.GroupDeviation

// VehicleDeviation is one vehicle's fleet-relative deviation level over
// one period.
type VehicleDeviation = grand.VehicleDeviation

// NewGroupDeviation returns a fleet-level Grand detector pooling peers
// over the given calendar window (0 = 14 days).
func NewGroupDeviation(cfg GrandConfig, window time.Duration) *GroupDeviation {
	return grand.NewGroupDeviation(cfg, window)
}

// GBTConfig sizes the gradient-boosted trees behind the regression
// detector: boosting rounds and tree depth. The rest of the booster is
// fixed at XGBoost's defaults (η 0.3, λ 1, γ 0, minimum child weight 1),
// and every tree is grown on all rows and features.
type GBTConfig = gbt.Config

// NewXGBoost returns the per-feature gradient-boosted regression
// detector ("xgboost" in the paper's tables).
func NewXGBoost(featureNames []string, cfg GBTConfig) Detector {
	return regress.New(featureNames, cfg)
}

// NewSelfTuningThreshold returns the paper's self-tuning thresholder:
// mean + factor·std over held-out healthy scores, per channel.
func NewSelfTuningThreshold(factor float64) Thresholder {
	return thresholds.NewSelfTuning(factor)
}

// NewPipeline builds a streaming pipeline for one vehicle.
func NewPipeline(vehicleID string, cfg PipelineConfig) (*Pipeline, error) {
	return core.NewPipeline(vehicleID, cfg)
}

// DefaultPipelineConfig returns the paper's complete solution: the
// evaluation grid's closest-pair × correlation pipeline at self-tuning
// factor 10, with warm-up filtering, the density gate and Ref reset on
// every maintenance event. Handy as the NewConfig callback of a FleetEngine.
func DefaultPipelineConfig() (PipelineConfig, error) {
	return eval.GridSpec{}.PipelineConfig(eval.ClosestPair, transform.Correlation, 10)
}

// NewDefaultPipeline builds the paper's complete solution for one
// vehicle (see DefaultPipelineConfig).
func NewDefaultPipeline(vehicleID string) (*Pipeline, error) {
	cfg, err := DefaultPipelineConfig()
	if err != nil {
		return nil, err
	}
	return core.NewPipeline(vehicleID, cfg)
}

// RunVehicle replays a vehicle's records and events chronologically
// through a fresh pipeline and returns all alarms, exactly those the
// streaming pipeline raises. It transforms the stream first, then fits
// each Ref segment on its own detector replica, ahead of scoring.
func RunVehicle(vehicleID string, records []Record, events []Event, makeCfg func() PipelineConfig) ([]Alarm, error) {
	return core.RunVehicle(vehicleID, records, events, makeCfg)
}

// Concurrent multi-vehicle engine.
type (
	// FleetEngine is the sharded concurrent streaming engine: vehicles
	// are hashed to shards, each shard goroutine exclusively owns its
	// vehicles' Pipelines, and alarms fan in on a single channel.
	// IngestBatch (one-item slices for a record-at-a-time producer) and
	// Replay admit through one path under the shard's ingest mutex, so
	// any mix of them may run concurrently with each other and with
	// Checkpoint, StatsConsistent and vehicle handoff. Checkpoint and
	// handoff need a live engine: checkpoint a finished run before
	// Close.
	FleetEngine = fleet.Engine
	// FleetEngineConfig assembles a FleetEngine.
	FleetEngineConfig = fleet.Config
	// EngineStats is a point-in-time snapshot of engine counters.
	EngineStats = fleet.EngineStats
	// ShardStats is one shard's share of EngineStats.
	ShardStats = fleet.ShardStats
)

// ErrSkipVehicle, returned from FleetEngineConfig.NewConfig, excludes a
// vehicle from processing without failing the engine.
var ErrSkipVehicle = fleet.ErrSkipVehicle

// NewFleetEngine starts a sharded concurrent engine; the caller must
// drain Alarms() and call Close() when ingestion ends.
func NewFleetEngine(cfg FleetEngineConfig) (*FleetEngine, error) {
	return fleet.NewEngine(cfg)
}

// Checkpoint/restore errors for the fleet engine. The state/config
// split means a checkpoint carries only mutable state; cfg re-supplies
// configuration (and may change operational knobs such as Shards).
var (
	// ErrNotSnapshottable reports a handler that cannot be serialized.
	ErrNotSnapshottable = fleet.ErrNotSnapshottable
	// ErrBadCheckpoint reports a structurally valid checkpoint whose
	// contents are semantically invalid for the supplied config.
	ErrBadCheckpoint = fleet.ErrBadCheckpoint
)

// NewFleetEngineFromCheckpoint restores an engine previously serialized
// with FleetEngine.Checkpoint into a fresh running engine. The shard
// count comes from cfg, not the checkpoint, so a fleet checkpointed on
// one machine can resume on different hardware; scoring is bit-identical
// to an uninterrupted run either way.
func NewFleetEngineFromCheckpoint(r io.Reader, cfg FleetEngineConfig) (*FleetEngine, error) {
	return fleet.NewEngineFromCheckpoint(r, cfg)
}

// Per-vehicle state handoff: single vehicles extract from a live
// engine and adopt into another (FleetEngine.ExtractVehicle /
// AdoptVehicle / Cordon), the unit the control plane's drain moves.
type (
	// VehicleState is one vehicle's extracted detection state — the
	// same per-vehicle codec whole-engine checkpoints are built from.
	VehicleState = fleet.VehicleState
	// VehicleUnavailableError is the typed per-vehicle refusal
	// IngestBatch and Replay return while a vehicle is cordoned or
	// mid-handoff; refusal is all-or-nothing per vehicle within an
	// IngestBatch call, so retrying the refused items verbatim cannot
	// duplicate records. (Replay decides per staged chunk; see
	// FleetEngine.Replay.)
	VehicleUnavailableError = fleet.VehicleUnavailableError
)

// Handoff errors.
var (
	// ErrUnknownVehicle reports an extract of a vehicle the engine
	// holds no state for.
	ErrUnknownVehicle = fleet.ErrUnknownVehicle
	// ErrVehicleExists reports an adopt of a vehicle the engine
	// already serves.
	ErrVehicleExists = fleet.ErrVehicleExists
)

// DecodeVehicleState parses a serialized VehicleState (the payload of
// a wire handoff frame or a checkpoint vehicle section).
func DecodeVehicleState(payload []byte) (VehicleState, error) {
	return fleet.DecodeVehicleState(payload)
}

// Fleet simulation (the proprietary-dataset substitute).
type (
	// FleetConfig controls the synthetic fleet generator.
	FleetConfig = fleetsim.Config
	// Fleet is a generated synthetic dataset.
	Fleet = fleetsim.Fleet
)

// NewFleet generates a deterministic synthetic fleet.
func NewFleet(cfg FleetConfig) *Fleet { return fleetsim.Generate(cfg) }

// SmallFleetConfig is a test/demo-scale fleet.
func SmallFleetConfig() FleetConfig { return fleetsim.SmallConfig() }

// Evaluation.
type (
	// Metrics aggregates PH-based detection quality.
	Metrics = eval.Metrics
)

// Evaluate scores alarms against recorded failures with the paper's
// prediction-horizon protocol.
func Evaluate(alarms []Alarm, failures []Event, ph time.Duration) Metrics {
	return eval.Evaluate(alarms, failures, ph)
}

// ConsolidateDaily collapses alarms to one per vehicle-day.
func ConsolidateDaily(alarms []Alarm) []Alarm { return eval.ConsolidateDaily(alarms) }

// Observability: the internal/obs layer re-exported. A MetricsRegistry
// collects counters, gauges and latency histograms from every component
// that shares an Observer; WritePrometheus renders them in Prometheus
// text format. The AlarmJournal keeps the last N alarms with their full
// detection context (technique, transform, score, live threshold, Ref
// fill level). A nil *Observer disables instrumentation at zero cost.
type (
	// MetricsRegistry holds metric families and renders expositions.
	MetricsRegistry = obs.Registry
	// Observer is the instrumentation hub accepted by PipelineConfig
	// and FleetEngineConfig.
	Observer = obs.Observer
	// ObserverConfig assembles an Observer.
	ObserverConfig = obs.ObserverConfig
	// AlarmJournal is the bounded ring of alarm-lifecycle entries.
	AlarmJournal = obs.Journal
	// AlarmJournalEntry is one journaled alarm with detection context.
	AlarmJournalEntry = obs.AlarmEvent
	// DebugServer serves /metrics (the registry), /fleet, /debug/pprof/*
	// and Go's standard /debug/vars on a background listener.
	DebugServer = obs.DebugServer
	// DebugConfig wires a registry, journal and fleet status callback
	// into a DebugServer.
	DebugConfig = obs.DebugConfig
	// BatchCtx is the per-batch provenance context accepted by
	// FleetEngine.IngestBatchCtx; alarms caused by the batch's records
	// report its batch/trace IDs and ingest-to-alarm latency.
	BatchCtx = obs.BatchCtx
	// ControlEventLog is the bounded ring of control-plane lifecycle
	// events (drains, cordons, adoptions, peer conflicts).
	ControlEventLog = obs.EventLog
	// ControlEvent is one control-plane audit entry.
	ControlEvent = obs.ControlEvent
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewObserver builds an instrumentation hub registering the pipeline
// metric families in reg. Set it on PipelineConfig.Observer and
// FleetEngineConfig.Observer.
func NewObserver(reg *MetricsRegistry, cfg ObserverConfig) *Observer {
	return obs.NewObserver(reg, cfg)
}

// NewAlarmJournal returns a bounded alarm journal (capacity <= 0 means
// the default of 256 entries).
func NewAlarmJournal(capacity int) *AlarmJournal { return obs.NewJournal(capacity) }

// NewDebugMux builds the observability routes (/metrics for the
// registry, /fleet, /debug/pprof/* and Go's standard /debug/vars) as a
// mux callers can extend with their own handlers — navarchos-serve
// mounts its ingest and query endpoints on top of it.
func NewDebugMux(cfg DebugConfig) *http.ServeMux { return obs.NewDebugMux(cfg) }

// StartDebugServer serves the observability endpoints on addr (e.g.
// ":8080" or "127.0.0.1:0") until Close.
func StartDebugServer(addr string, cfg DebugConfig) (*DebugServer, error) {
	return obs.StartDebugServer(addr, cfg)
}
