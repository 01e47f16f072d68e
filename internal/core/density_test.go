package core

import (
	"math/rand"
	"testing"

	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/thresholds"
	"github.com/navarchos/pdm/internal/timeseries"
	"github.com/navarchos/pdm/internal/transform"
)

// spikeDetector returns a controllable score sequence: scores[i] for the
// i-th scored sample, cycling.
type spikeDetector struct {
	scores []float64
	i      int
}

func (d *spikeDetector) Name() string { return "spike" }
func (d *spikeDetector) Fit(ref [][]float64) error {
	if len(ref) == 0 {
		return detector.ErrEmptyReference
	}
	return nil
}
func (d *spikeDetector) Score(x []float64) ([]float64, error) {
	s := d.scores[d.i%len(d.scores)]
	d.i++
	return []float64{s}, nil
}
func (d *spikeDetector) Channels() int          { return 1 }
func (d *spikeDetector) ChannelNames() []string { return []string{"spike"} }

// TestDensityGatingSuppressesIsolatedSpikes: with DensityM=3/DensityK=5,
// isolated violations never alarm while a sustained run does.
func TestDensityGatingSuppressesIsolatedSpikes(t *testing.T) {
	// Score pattern after calibration: one spike every 6 samples never
	// reaches 3-in-5; then a run of 5 spikes does.
	pattern := []float64{
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, // calibration-ish quiet zone
		9, 0, 0, 0, 0, 0, // isolated spike
		9, 0, 0, 0, 0, 0, // isolated spike
		9, 9, 9, 9, 9, // sustained violation
	}
	det := &spikeDetector{scores: pattern}
	tr, _ := transform.New(transform.Raw, 0)
	p, err := NewPipeline("v1", Config{
		Transformer:   tr,
		Detector:      det,
		Thresholder:   thresholds.NewConstant(5),
		ProfileLength: 4,
		DensityM:      3,
		DensityK:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var alarmAt []int
	for i := 0; i < 4+len(pattern); i++ {
		r := drivingRecordAt(i, rng)
		alarms, err := p.HandleRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(alarms) > 0 {
			alarmAt = append(alarmAt, det.i) // scored-sample index
		}
	}
	if len(alarmAt) == 0 {
		t.Fatal("sustained violation run raised no alarm")
	}
	// The first alarm must come from the sustained run (scored index >
	// 22: pattern positions 22..26), not the isolated spikes at 10/16.
	if first := alarmAt[0]; first <= 17 {
		t.Errorf("alarm fired during isolated spikes (scored sample %d)", first)
	}
}

// drivingRecordAt builds a clean moving record so the default filter
// keeps it.
func drivingRecordAt(i int, rng *rand.Rand) timeseries.Record {
	r := healthyRecord(i, rng.Float64(), rng)
	return r
}

// TestDensityGatingAcrossProfileReset: a maintenance event rebuilds Ref
// but not the violation-persistence gate. The gate filters the
// vehicle's stream of scored samples, as the grid's replay does, so a
// violation run that straddles a profile reset gates as one stream:
// two violations before the reset and one after it are 3 of the last 5
// scored samples. The samples that refill Ref are not scored and do not
// count.
func TestDensityGatingAcrossProfileReset(t *testing.T) {
	// Score-call order (ProfileLength 4, calibration fraction 0.25 → one
	// calibration Score per fit): calib, 9, 9, [reset], calib, 9.
	det := &spikeDetector{scores: []float64{0, 9, 9, 0, 9}}
	tr, _ := transform.New(transform.Raw, 0)
	p, err := NewPipeline("v1", Config{
		Transformer:   tr,
		Detector:      det,
		Thresholder:   thresholds.NewConstant(5),
		ProfileLength: 4,
		ResetPolicy:   ResetOnAllEvents,
		DensityM:      3,
		DensityK:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	i := 0
	feed := func(n int) []detector.Alarm {
		var out []detector.Alarm
		for k := 0; k < n; k++ {
			alarms, err := p.HandleRecord(drivingRecordAt(i, rng))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, alarms...)
			i++
		}
		return out
	}
	// Fill + fit, then two violating samples: 2-of-5 stays below M=3.
	if a := feed(4 + 2); len(a) != 0 {
		t.Fatalf("pre-reset: %d alarms before density threshold", len(a))
	}
	// The service is timed at the next record, so it waits for it and
	// resets the profile before that record reaches Ref.
	p.HandleEvent(obd.Event{VehicleID: "v1", Type: obd.EventService, Time: drivingRecordAt(i, rng).Time})
	if p.State() != StateDetecting {
		t.Fatal("a service ahead of the last record must wait for the record at its time")
	}
	if a := feed(1); len(a) != 0 || p.State() != StateCollecting || p.RefLen() != 1 {
		t.Fatalf("service event should rebuild the profile: %d alarms, state %v, Ref %d", len(a), p.State(), p.RefLen())
	}
	// Refill + refit without an alarm, then ONE violating sample: with
	// the two before the reset it reaches 3-of-5.
	if a := feed(3); len(a) != 0 {
		t.Fatalf("refill: %d alarms from samples that only fill Ref", len(a))
	}
	if a := feed(1); len(a) != 1 {
		t.Fatalf("post-reset: %d alarms, want 1: the run straddling the reset gates as one stream", len(a))
	}
}

// TestDensityDefaultsPassThrough: with defaults (1/1), every violation
// alarms immediately.
func TestDensityDefaultsPassThrough(t *testing.T) {
	det := &spikeDetector{scores: []float64{0, 0, 0, 0, 9}}
	tr, _ := transform.New(transform.Raw, 0)
	p, err := NewPipeline("v1", Config{
		Transformer:   tr,
		Detector:      det,
		Thresholder:   thresholds.NewConstant(5),
		ProfileLength: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	total := 0
	for i := 0; i < 20; i++ {
		alarms, err := p.HandleRecord(drivingRecordAt(i, rng))
		if err != nil {
			t.Fatal(err)
		}
		total += len(alarms)
	}
	if total == 0 {
		t.Error("default density should alarm on every violation")
	}
}
