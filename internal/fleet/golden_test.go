package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/navarchos/pdm/internal/core"
)

// goldenCheckpoint replays the first half of smallFleet() through a live
// engine in which the last vehicle is excluded by configuration and the
// one before it fails its first fit, checkpoints the engine while it
// runs, and returns the stream's SHA-256.
func goldenCheckpoint(t *testing.T, shards int) string {
	t.Helper()
	f := smallFleet()
	ids := f.AllVehicleIDs()
	skipID, failID := ids[len(ids)-1], ids[len(ids)-2]
	e, err := NewEngine(Config{
		NewConfig: func(v string) (core.Config, error) {
			cfg := testConfig()
			switch v {
			case skipID:
				return core.Config{}, ErrSkipVehicle
			case failID:
				cfg.Detector = failingFitDetector{}
			}
			return cfg, nil
		},
		Shards:    shards,
		batchSize: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	wait := drainAlarms(e)
	split := len(f.Records) / 2
	evFirst, _ := splitEvents(f.Events, f.Records[split].Time)
	if err := e.Replay(f.Records[:split], evFirst); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err != nil {
		t.Fatalf("live Checkpoint: %v", err)
	}
	if err := e.Close(); !errors.Is(err, errFitBoom) {
		t.Fatalf("Close error = %v, want the failed vehicle's errFitBoom", err)
	}
	wait()
	if got, want := e.Stats().Vehicles, len(ids)-2; got != want {
		t.Fatalf("%d active vehicles at the cut, want %d (one skipped, one failed)", got, want)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestCheckpointBytesGolden pins the NVCHKPT1 stream byte for byte: the
// stats section, the skip section (config-skipped and failed vehicles
// both land in it) and every vehicle section, at 1 and 3 shards. The
// digests in testdata/engine_small.ckpt.sha256 were written by the
// commit BEFORE the shard's per-vehicle maps were folded into one entry
// and must never be regenerated from the code under test: a mismatch
// means checkpoints and handoff frames written by an older binary no
// longer describe the same fleet.
func TestCheckpointBytesGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/engine_small.ckpt.sha256")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		digest, name, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("malformed digest line %q", line)
		}
		want[name] = digest
	}
	for _, shards := range []int{1, 3} {
		name := fmt.Sprintf("shards=%d", shards)
		t.Run(name, func(t *testing.T) {
			if got := goldenCheckpoint(t, shards); got != want[name] {
				t.Errorf("digest = %s, want %s", got, want[name])
			}
		})
	}
}
