package eval

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/obd"
)

var base = time.Date(2023, 6, 1, 0, 0, 0, 0, time.UTC)

const day = 24 * time.Hour

func alarm(vehicle string, daysIn float64) detector.Alarm {
	return detector.Alarm{VehicleID: vehicle, Time: base.Add(time.Duration(daysIn * float64(day)))}
}

func failure(vehicle string, daysIn float64) obd.Event {
	return obd.Event{VehicleID: vehicle, Time: base.Add(time.Duration(daysIn * float64(day))), Type: obd.EventRepair}
}

func TestFBeta(t *testing.T) {
	if got := FBeta(0, 0, 0.5); got != 0 {
		t.Errorf("FBeta(0,0) = %v", got)
	}
	// Paper's headline: P=0.78, R=0.44 → F0.5 ≈ 0.68.
	got := FBeta(0.78, 0.44, 0.5)
	if math.Abs(got-0.68) > 0.01 {
		t.Errorf("F0.5(0.78, 0.44) = %v, want ≈ 0.68", got)
	}
	// F1 is symmetric in P and R.
	if FBeta(0.3, 0.7, 1) != FBeta(0.7, 0.3, 1) {
		t.Error("F1 should be symmetric")
	}
	// F0.5 weighs precision more: raising precision helps more than
	// raising recall by the same amount.
	if FBeta(0.8, 0.4, 0.5) <= FBeta(0.4, 0.8, 0.5) {
		t.Error("F0.5 should favour precision")
	}
}

func TestEvaluateBasicTPFP(t *testing.T) {
	failures := []obd.Event{failure("v1", 100)}
	// Two alarms inside PH=30d (one TP total), one outside (FP).
	alarms := []detector.Alarm{
		alarm("v1", 80),
		alarm("v1", 95),
		alarm("v1", 20),
	}
	m := Evaluate(alarms, failures, 30*day)
	if m.TP != 1 || m.FP != 1 || m.TotalFailures != 1 {
		t.Fatalf("TP=%d FP=%d total=%d", m.TP, m.FP, m.TotalFailures)
	}
	if m.Precision != 0.5 || m.Recall != 1 {
		t.Errorf("P=%v R=%v", m.Precision, m.Recall)
	}
	if math.Abs(m.F05-(1.25*0.5*1)/(0.25*0.5+1)) > 1e-12 {
		t.Errorf("F05 = %v", m.F05)
	}
}

func TestEvaluatePHBoundary(t *testing.T) {
	failures := []obd.Event{failure("v1", 100)}
	// Exactly PH days before: inside (interval is (failure-PH, failure]).
	m := Evaluate([]detector.Alarm{alarm("v1", 70.001)}, failures, 30*day)
	if m.TP != 1 {
		t.Errorf("alarm just inside PH not counted: %+v", m)
	}
	// Exactly at the failure time: inside.
	m = Evaluate([]detector.Alarm{alarm("v1", 100)}, failures, 30*day)
	if m.TP != 1 {
		t.Errorf("alarm at failure time not counted: %+v", m)
	}
	// After the failure: FP.
	m = Evaluate([]detector.Alarm{alarm("v1", 100.5)}, failures, 30*day)
	if m.TP != 0 || m.FP != 1 {
		t.Errorf("alarm after failure should be FP: %+v", m)
	}
	// Way before: FP.
	m = Evaluate([]detector.Alarm{alarm("v1", 60)}, failures, 30*day)
	if m.FP != 1 {
		t.Errorf("alarm before PH should be FP: %+v", m)
	}
}

func TestEvaluatePerVehicleMatching(t *testing.T) {
	failures := []obd.Event{failure("v1", 50), failure("v2", 50)}
	// v1's alarm must not detect v2's failure.
	m := Evaluate([]detector.Alarm{alarm("v1", 45)}, failures, 30*day)
	if m.TP != 1 || m.TotalFailures != 2 {
		t.Fatalf("TP=%d total=%d", m.TP, m.TotalFailures)
	}
	if m.Recall != 0.5 {
		t.Errorf("recall = %v, want 0.5", m.Recall)
	}
}

func TestEvaluateMultipleFailuresSameVehicle(t *testing.T) {
	failures := []obd.Event{failure("v1", 50), failure("v1", 200)}
	alarms := []detector.Alarm{
		alarm("v1", 45),  // inside first PH
		alarm("v1", 190), // inside second PH
		alarm("v1", 120), // between failures: FP
	}
	m := Evaluate(alarms, failures, 30*day)
	if m.TP != 2 || m.FP != 1 {
		t.Errorf("TP=%d FP=%d, want 2, 1", m.TP, m.FP)
	}
	if m.Recall != 1 {
		t.Errorf("recall = %v", m.Recall)
	}
}

func TestEvaluateNonRepairEventsIgnored(t *testing.T) {
	events := []obd.Event{
		{VehicleID: "v1", Time: base.Add(50 * day), Type: obd.EventService},
		failure("v1", 100),
	}
	m := Evaluate([]detector.Alarm{alarm("v1", 45)}, events, 30*day)
	// The alarm is not within 30d of the repair; the service must not
	// count as a failure.
	if m.TotalFailures != 1 || m.TP != 0 || m.FP != 1 {
		t.Errorf("%+v", m)
	}
}

func TestEvaluateEmpty(t *testing.T) {
	m := Evaluate(nil, nil, 30*day)
	if m.TP != 0 || m.FP != 0 || m.Precision != 0 || m.Recall != 0 || m.F05 != 0 {
		t.Errorf("empty evaluation = %+v", m)
	}
}

func TestConsolidateDaily(t *testing.T) {
	alarms := []detector.Alarm{
		alarm("v1", 10.1),
		alarm("v1", 10.5), // same vehicle, same day -> dropped
		alarm("v1", 11.1),
		alarm("v2", 10.2), // different vehicle -> kept
	}
	got := ConsolidateDaily(alarms)
	if len(got) != 3 {
		t.Fatalf("consolidated to %d alarms, want 3", len(got))
	}
	// First alarm of the day wins.
	if !got[0].Time.Equal(alarms[0].Time) {
		t.Error("should keep the first alarm of the day")
	}
}

func TestFilters(t *testing.T) {
	alarms := []detector.Alarm{alarm("v1", 1), alarm("v2", 2)}
	got := FilterByVehicles(alarms, []string{"v2"})
	if len(got) != 1 || got[0].VehicleID != "v2" {
		t.Errorf("FilterByVehicles = %v", got)
	}
	events := []obd.Event{failure("v1", 1), failure("v3", 2)}
	gotE := FilterEventsByVehicles(events, []string{"v3"})
	if len(gotE) != 1 || gotE[0].VehicleID != "v3" {
		t.Errorf("FilterEventsByVehicles = %v", gotE)
	}
}

// TestEvaluateOrderIndependent: alarms at days 75 and 95 against repairs
// at days 100 and 120 (PH 30 d). The day-95 alarm lies inside both
// horizons, so both failures are detected, whichever order the repairs
// and alarms are listed in.
func TestEvaluateOrderIndependent(t *testing.T) {
	alarms := []detector.Alarm{alarm("v1", 75), alarm("v1", 95)}
	for _, c := range []struct {
		name     string
		alarms   []detector.Alarm
		failures []obd.Event
	}{
		{"repairs in time order", alarms, []obd.Event{failure("v1", 100), failure("v1", 120)}},
		{"repairs reversed", alarms, []obd.Event{failure("v1", 120), failure("v1", 100)}},
		{"alarms reversed", []detector.Alarm{alarms[1], alarms[0]}, []obd.Event{failure("v1", 100), failure("v1", 120)}},
		{"both reversed", []detector.Alarm{alarms[1], alarms[0]}, []obd.Event{failure("v1", 120), failure("v1", 100)}},
	} {
		m := Evaluate(c.alarms, c.failures, 30*day)
		if m.TP != 2 || m.FP != 0 || m.TotalFailures != 2 {
			t.Errorf("%s: TP=%d FP=%d total=%d, want 2, 0, 2", c.name, m.TP, m.FP, m.TotalFailures)
		}
	}
}

// bruteForce states the PH rule directly: a failure at r is detected if
// an alarm of its vehicle lies in (r−PH, r]; an alarm at a is a false
// positive if no repair of its vehicle lies in [a, a+PH).
func bruteForce(alarms []detector.Alarm, events []obd.Event, ph time.Duration) (m Metrics, fp map[int]bool) {
	fp = map[int]bool{}
	inside := func(a detector.Alarm, r obd.Event) bool {
		return a.VehicleID == r.VehicleID && !a.Time.After(r.Time) && a.Time.After(r.Time.Add(-ph))
	}
	for _, r := range events {
		if r.Type != obd.EventRepair {
			continue
		}
		m.TotalFailures++
		for _, a := range alarms {
			if inside(a, r) {
				m.TP++
				break
			}
		}
	}
	for i, a := range alarms {
		fp[i] = true
		for _, r := range events {
			if r.Type == obd.EventRepair && inside(a, r) {
				fp[i] = false
			}
		}
		if fp[i] {
			m.FP++
		}
	}
	return m.scored(), fp
}

// TestHorizonMatchesEvaluate holds the Horizon fold to the rule on
// random multi-vehicle streams. Times are whole days, so ties between an
// alarm and a repair and repairs exactly PH after an alarm occur, and
// repairs of one vehicle often lie less than PH apart, so horizons
// overlap. Evaluate must equal a brute-force statement of the rule on
// every stream and under any permutation of its inputs, and must equal
// the replaced first-listed accounting (evaluateReference) wherever a
// vehicle's repairs are at least PH apart. Folding one vehicle in time
// order must report each alarm's outcome in the order it was fed.
func TestHorizonMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vehicles := []string{"v1", "v2", "v3"}
	spaced := 0
	for iter := 0; iter < 2000; iter++ {
		ph := time.Duration(1+rng.Intn(30)) * day
		var alarms []detector.Alarm
		var events []obd.Event
		for _, v := range vehicles {
			for n := rng.Intn(12); n > 0; n-- {
				alarms = append(alarms, alarm(v, float64(rng.Intn(120))))
			}
			for n := rng.Intn(4); n > 0; n-- {
				events = append(events, failure(v, float64(rng.Intn(120))))
			}
			if rng.Intn(3) == 0 {
				events = append(events, obd.Event{VehicleID: v, Time: base.Add(time.Duration(rng.Intn(120)) * day), Type: obd.EventService})
			}
		}
		want, _ := bruteForce(alarms, events, ph)
		if got := Evaluate(alarms, events, ph); got != want {
			t.Fatalf("iter %d: Evaluate = %+v, brute force %+v", iter, got, want)
		}
		for p := 0; p < 3; p++ {
			sa, se := slices.Clone(alarms), slices.Clone(events)
			rng.Shuffle(len(sa), func(i, j int) { sa[i], sa[j] = sa[j], sa[i] })
			rng.Shuffle(len(se), func(i, j int) { se[i], se[j] = se[j], se[i] })
			if got := Evaluate(sa, se, ph); got != want {
				t.Fatalf("iter %d: permuted Evaluate = %+v, want %+v", iter, got, want)
			}
		}
		if repairsApart(events, ph) {
			spaced++
			if got := evaluateReference(alarms, events, ph); got != want {
				t.Fatalf("iter %d: repairs ≥ PH apart, evaluateReference = %+v, want %+v", iter, got, want)
			}
		}

		v1 := FilterByVehicles(alarms, []string{"v1"})
		slices.SortStableFunc(v1, func(a, b detector.Alarm) int { return a.Time.Compare(b.Time) })
		_, wantFP := bruteForce(v1, events, ph)
		var outcomes []bool
		h := Horizon{PH: ph, Settled: func(tp bool) { outcomes = append(outcomes, tp) }}
		h.Fold(v1, Repairs(events)["v1"])
		if len(outcomes) != len(v1) {
			t.Fatalf("iter %d: %d outcomes for %d alarms", iter, len(outcomes), len(v1))
		}
		for i, tp := range outcomes {
			if tp == wantFP[i] {
				t.Fatalf("iter %d: alarm %d at %v settled tp=%v", iter, i, v1[i].Time, tp)
			}
		}
	}
	if spaced < 200 {
		t.Fatalf("only %d streams with repairs ≥ PH apart; the oracle comparison has no teeth", spaced)
	}
}

// repairsApart reports whether every vehicle's repairs lie at least ph
// apart, so that no alarm falls inside two horizons.
func repairsApart(events []obd.Event, ph time.Duration) bool {
	for _, rs := range Repairs(events) {
		for i := 1; i < len(rs); i++ {
			if rs[i].Sub(rs[i-1]) < ph {
				return false
			}
		}
	}
	return true
}

// TestHorizonLive drives the machine as a live vehicle would: an alarm
// stays pending until a repair or the clock settles it, the clock
// reaching exactly a+PH settles it as a false positive, and a repair at
// the alarm's own instant counts.
func TestHorizonLive(t *testing.T) {
	var outcomes []bool
	h := Horizon{PH: 30 * day, Settled: func(tp bool) { outcomes = append(outcomes, tp) }}
	h.Alarm(base.Add(10 * day))
	h.Advance(base.Add(39 * day))
	if len(outcomes) != 0 {
		t.Fatalf("alarm settled before its horizon passed: %v", outcomes)
	}
	h.Advance(base.Add(40 * day))
	h.Alarm(base.Add(50 * day))
	h.Repair(base.Add(50 * day))
	h.Alarm(base.Add(60 * day))
	if m := h.Close(); m.TP != 1 || m.FP != 2 || m.TotalFailures != 1 {
		t.Fatalf("counts %+v, want TP 1, FP 2, failures 1", m)
	}
	if want := []bool{false, true, false}; !slices.Equal(outcomes, want) {
		t.Fatalf("outcomes %v, want %v", outcomes, want)
	}
}

// TestSumCountsEachVehicleOnce: a vehicle listed twice in a setting
// counts once, as a vehicle set.
func TestSumCountsEachVehicleOnce(t *testing.T) {
	counts := map[string]Metrics{"v1": {TP: 1, FP: 1, TotalFailures: 1}, "v2": {FP: 2}}
	if m := sum(counts, []string{"v1", "v2", "v1"}); m.TP != 1 || m.FP != 3 || m.TotalFailures != 1 {
		t.Fatalf("sum = %+v, want TP 1, FP 3, failures 1", m)
	}
}
