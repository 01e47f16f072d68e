// Comparison: evaluate several detector × transformation combinations on
// the same fleet — a miniature of the paper's Figures 4–5 — using only
// the public API: RunVehicle to collect alarms per configuration and
// Evaluate to score them against the recorded repairs.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/navarchos/pdm"
)

func main() {
	log.SetFlags(0)
	fleet := pdm.NewFleet(pdm.SmallFleetConfig())
	vehicles := fleet.EventVehicleIDs()
	fmt.Printf("evaluating on %d vehicles with recorded events\n\n", len(vehicles))

	type combo struct {
		name     string
		kind     pdm.TransformKind
		detector func(featureNames []string) pdm.Detector
		factor   float64
	}
	combos := []combo{
		{"closest-pair / correlation", pdm.Correlation,
			func(n []string) pdm.Detector { return pdm.NewClosestPair(n) }, 14},
		{"closest-pair / mean", pdm.MeanAgg,
			func(n []string) pdm.Detector { return pdm.NewClosestPair(n) }, 14},
		{"xgboost      / correlation", pdm.Correlation,
			func(n []string) pdm.Detector { return pdm.NewXGBoost(n, pdm.GBTConfig{NumTrees: 25, MaxDepth: 3}) }, 14},
		{"xgboost      / raw", pdm.Raw,
			func(n []string) pdm.Detector { return pdm.NewXGBoost(n, pdm.GBTConfig{NumTrees: 25, MaxDepth: 3}) }, 14},
	}

	const ph = 30 * 24 * time.Hour
	fmt.Printf("%-30s %6s %6s %6s %5s %5s\n", "configuration", "F0.5", "prec", "recall", "TP", "FP")
	for _, c := range combos {
		var alarms []pdm.Alarm
		for _, vehicle := range vehicles {
			// The complete solution with this combination's parts swapped in.
			makeCfg := func() pdm.PipelineConfig {
				cfg, err := pdm.DefaultPipelineConfig()
				if err != nil {
					log.Fatal(err)
				}
				tr, err := pdm.NewTransformer(c.kind, 12)
				if err != nil {
					log.Fatal(err)
				}
				cfg.Transformer = tr
				cfg.Detector = c.detector(tr.FeatureNames())
				cfg.Thresholder = pdm.NewSelfTuningThreshold(c.factor)
				if c.kind == pdm.Raw || c.kind == pdm.Delta {
					cfg.ProfileLength = 900
				}
				return cfg
			}
			a, err := pdm.RunVehicle(vehicle, fleet.Records, fleet.Events, makeCfg)
			if err != nil {
				log.Fatal(err)
			}
			alarms = append(alarms, a...)
		}
		m := pdm.Evaluate(pdm.ConsolidateDaily(alarms), fleet.Events, ph)
		fmt.Printf("%-30s %6.3f %6.2f %6.2f %5d %5d\n",
			c.name, m.F05, m.Precision, m.Recall, m.TP, m.FP)
	}
}
