package fleetsim

import (
	"math"
	"math/rand"

	"github.com/navarchos/pdm/internal/mat"
	"github.com/navarchos/pdm/internal/obd"
)

// engineState simulates one vehicle's powertrain minute by minute within
// a trip. The signal couplings are deliberately physical:
//
//	rpm  = idle + speed·gearing·(1+ε)            — strong rpm↔speed coupling
//	MAP  = base + gain·load                      — manifold pressure tracks load
//	MAF  = k · rpm · MAP / T_intake              — the speed-density equation
//	T_in = ambient + bayHeat·e^(−speed/40) + load heating
//	T_cool → regulated setpoint (healthy)        — i.e. ~uncorrelated once warm
//
// Faults perturb exactly one of those couplings (see faults.go), which
// is what makes the correlation transform discriminative.
type engineState struct {
	vehicle *Vehicle
	rng     *rand.Rand

	speed   float64
	coolant float64
	stopped int // minutes remaining stationary at a stop
	minute  int // minutes into the trip

	// Slow traffic/grade wander of the cruise target, so that every
	// analysis window contains genuine kinematic variation (steady
	// highway legs still see grades, traffic waves and overtakes).
	wanderAmp    float64
	wanderPeriod float64
	wanderPhase  float64

	// Day-level driver/vehicle volatility: an aggressive or economical
	// driving day scales engine load at a given speed, and tyre
	// pressure/wind scales the effective gearing. Both move raw signal
	// LEVELS day to day while leaving within-window correlations intact
	// — the paper's "driving behaviour and weather volatility" that
	// breaks raw-space methods.
	loadScale float64
	gearScale float64

	// ou is slowly varying (Ornstein–Uhlenbeck) process noise used by
	// the fault models: sensor contamination and leak geometry drift
	// over tens of minutes, not minute to minute, so faults corrupt
	// cross-signal correlations without lighting up the delta transform.
	ou1, ou2 float64

	// loadAvg and speedAvg are slow EWMAs of the engine's own operating
	// point; fault couplings are centred on them so that the injected
	// behavioural change stays level-free for every usage profile.
	loadAvg, speedAvg float64

	// debt is the vehicle's maintenance debt for the day (Vehicle.debt):
	// routine wear since the last physical service, mildly reshaping the
	// airflow and heat couplings. Services reset it — which is exactly
	// why ignoring service events (Table 3's ablation) leaves reference
	// profiles stale.
	debt float64
}

// newEngineState starts a trip with a cold-ish engine (coolant near
// ambient, a bit warmer if the engine ran recently).
func newEngineState(v *Vehicle, rng *rand.Rand, ambient float64, residualHeat float64, loadScale, gearScale float64) engineState {
	return engineState{
		vehicle:      v,
		rng:          rng,
		coolant:      ambient + residualHeat,
		wanderAmp:    12 + 7*rng.Float64(),
		wanderPeriod: 14 + 12*rng.Float64(),
		wanderPhase:  rng.Float64() * 2 * math.Pi,
		loadScale:    loadScale,
		gearScale:    gearScale,
		ou1:          rng.NormFloat64(),
		ou2:          rng.NormFloat64(),
		loadAvg:      0.5,
		speedAvg:     60,
	}
}

// step advances one minute of the given ride type at the given ambient
// temperature and fault severity, returning the six PID values.
func (e *engineState) step(ride rideParams, ambient, sev float64) [obd.NumPIDs]float64 {
	m := e.vehicle.Model
	prevSpeed := e.speed

	// --- kinematics -------------------------------------------------
	e.minute++
	if e.stopped > 0 {
		e.stopped--
		e.speed = 0
	} else if e.rng.Float64() < ride.stopProb {
		e.stopped = 1 + e.rng.Intn(2)
		e.speed = 0
	} else {
		wander := e.wanderAmp * math.Sin(2*math.Pi*float64(e.minute)/e.wanderPeriod+e.wanderPhase)
		target := ride.targetSpeed + wander + e.rng.NormFloat64()*ride.speedJitter
		if target < 0 {
			target = 0
		}
		// First-order approach toward the target plus noise.
		e.speed += (target-e.speed)*0.45 + e.rng.NormFloat64()*2.5
		if e.speed < 0 {
			e.speed = 0
		}
	}
	accel := e.speed - prevSpeed

	// Fault-noise processes with a few-minute correlation time: fast
	// enough to vary within an analysis window (breaking correlations),
	// slow enough not to light up the delta transform the way white
	// noise would.
	e.ou1 += -0.3*e.ou1 + 0.65*e.rng.NormFloat64()
	e.ou2 += -0.3*e.ou2 + 0.65*e.rng.NormFloat64()
	e.speedAvg += (e.speed - e.speedAvg) * 0.02

	// --- load & pressures -------------------------------------------
	load := (0.18 + 0.006*e.speed + 0.012*math.Max(accel, 0)) * e.loadScale
	load += 0.012 * e.rng.NormFloat64()
	load = mat.Clamp(load, 0.08, 1.0)
	e.loadAvg += (load - e.loadAvg) * 0.02

	var rpm float64
	if e.speed < 1 {
		rpm = m.IdleRPM + 25*e.rng.NormFloat64()
	} else {
		rpm = m.IdleRPM*0.35 + e.speed*m.RPMPerKmh*e.gearScale*(1+0.025*e.rng.NormFloat64())
	}
	if rpm < 600 {
		rpm = 600 + 20*e.rng.Float64()
	}

	mapKPa := m.MAPBase + m.MAPLoadGain*load + 0.8*e.rng.NormFloat64()
	// FaultIntakeLeak: unmetered air enters past the throttle; the
	// admitted flow fluctuates with the (unmodelled) leak geometry, so
	// MAP gains load-independent variance that decorrelates it from rpm
	// and speed, most visibly off-load.
	if e.vehicle.Fault == FaultIntakeLeak && sev > 0 {
		mapKPa += sev * (10*e.ou1 + 3*e.rng.NormFloat64())
	}
	mapKPa = mat.Clamp(mapKPa, 12, 250)

	// --- temperatures ------------------------------------------------
	intake := ambient + (17+4*e.debt)*math.Exp(-e.speed/40) + 7*load + 0.8*e.rng.NormFloat64()
	// FaultIntakeLeak: unmetered hot engine-bay air enters downstream of
	// the airbox, heating the intake charge erratically and decoupling
	// intake temperature from vehicle speed (ram-air no longer
	// dominates).
	if e.vehicle.Fault == FaultIntakeLeak && sev > 0 {
		intake += sev * 3.5 * e.ou2
	}
	intake = mat.Clamp(intake, -25, 85)

	// Healthy coolant: fast first-order rise while the thermostat is
	// closed (cold engine), then tight regulation at the setpoint with a
	// small load wiggle; once warm it is essentially decorrelated from
	// everything (that's what a thermostat is for).
	eqHealthy := m.Thermostat + 0.5*load - 0.2
	// Faulty equilibria are centred on the healthy operating point: the
	// paper's failures are essentially invisible in raw daily aggregates
	// (Section 2), so the injected faults shift LEVELS barely while the
	// coolant↔load/speed COUPLING — which a thermostat normally hides —
	// emerges clearly.
	var eq float64
	switch e.vehicle.Fault {
	case FaultThermostat:
		// Lost regulation: coolant tracks load and ram-air cooling
		// around the (roughly unchanged) mean.
		eq = eqHealthy + sev*(16*(load-e.loadAvg)-0.16*(e.speed-e.speedAvg)) - 4*sev*sev*sev
	case FaultHeadGasket:
		// Combustion gases in the jacket: temperature follows load
		// swings it normally ignores, overshooting slightly at the end.
		eq = eqHealthy + sev*24*(load-e.loadAvg) + 2*sev*sev*sev
	default:
		eq = eqHealthy
	}
	// A failing cooling circuit follows load swings faster than a
	// regulated one (no thermostat damping), tightening the within-
	// window coolant↔load coupling as severity grows.
	rate := 0.12 + 0.38*sev
	if e.coolant < eq-4 {
		rate = 0.30 // thermostat closed: rapid warm-up
	}
	e.coolant += (eq-e.coolant)*rate + 0.2*e.rng.NormFloat64()
	coolant := mat.Clamp(e.coolant, -25, 128)

	// --- airflow ------------------------------------------------------
	// Speed-density: MAF ∝ rpm · MAP / T_intake(K).
	maf := m.MAFScale * rpm * mapKPa / (intake + 273.15)
	// Maintenance debt: a clogging air filter restricts high flow
	// disproportionately, bending (not just scaling) the MAF↔rpm·MAP
	// coupling.
	maf -= e.debt * 0.012 * maf * maf
	maf *= 1 + 0.015*e.rng.NormFloat64()
	switch e.vehicle.Fault {
	case FaultMAFDrift:
		// Contamination under-reads and adds a slowly drifting bias that
		// is independent of the true flow — breaking MAF↔rpm and MAF↔MAP
		// without injecting minute-to-minute (delta-visible) noise.
		maf = maf*(1-0.06*sev*sev*sev) + sev*5*e.ou1
	case FaultHeadGasket:
		maf *= 1 - 0.10*sev
	}
	maf = mat.Clamp(maf, 0.3, 340)

	var out [obd.NumPIDs]float64
	out[obd.EngineRPM] = rpm
	out[obd.Speed] = e.speed
	out[obd.CoolantTemp] = coolant
	out[obd.IntakeTemp] = intake
	out[obd.MAPIntake] = mapKPa
	out[obd.MAFAirFlowRate] = maf
	return out
}

// ambientTemp returns the ambient temperature for a given simulated day
// and hour: a seasonal sinusoid plus a diurnal cycle plus day-level
// weather noise (deterministic per day via the provided value).
func ambientTemp(dayOfYear int, hour int, weatherNoise float64) float64 {
	seasonal := 12 + 10*math.Sin(2*math.Pi*float64(dayOfYear-100)/365)
	diurnal := 4 * math.Sin(2*math.Pi*float64(hour-9)/24)
	return seasonal + diurnal + weatherNoise
}
