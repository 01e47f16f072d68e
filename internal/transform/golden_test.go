package transform

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/timeseries"
)

// goldenStream drives one transformer of the given kind (window 12)
// through a fixed script and feeds every emitted vector's Float64bits
// into emits and every mid-window snapshot into snaps. The script
// covers what a transformer's state can go through: plain tumbling
// windows, a trip gap over maxGap mid-window, a Reset mid-window,
// collecting past a full window without emitting (the correlation and
// mean transforms start their next window there), and a snapshot
// restored into a fresh instance that carries on the stream.
func goldenStream(t *testing.T, kind Kind, emits, snaps hash.Hash) {
	t.Helper()
	tr, err := New(kind, 12)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	now := time.Date(2023, 9, 4, 6, 30, 0, 0, time.UTC)
	next := func(step time.Duration) timeseries.Record {
		now = now.Add(step)
		r := timeseries.Record{VehicleID: "veh-g", Time: now}
		for p := range r.Values {
			env := obd.Envelope(obd.PID(p))
			r.Values[p] = env.Min + rng.Float64()*(env.Max-env.Min)
		}
		return r
	}
	var word [8]byte
	digestEmit := func() {
		for _, v := range emit(tr) {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
			emits.Write(word[:])
		}
	}
	run := func(n int) {
		for i := 0; i < n; i++ {
			tr.Collect(next(time.Minute))
			if tr.Ready() {
				digestEmit()
			}
		}
	}
	snapshot := func() []byte {
		snap, err := tr.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		binary.LittleEndian.PutUint64(word[:], uint64(len(snap)))
		snaps.Write(word[:])
		snaps.Write(snap)
		return snap
	}

	run(41)                         // three full windows and five records into a fourth
	snapshot()                      // mid-window
	tr.Collect(next(2 * time.Hour)) // trip gap over maxGap, mid-window
	run(30)
	run(5)
	tr.Reset() // mid-window
	run(30)
	for i := 0; i < 19; i++ { // past full, no emit
		tr.Collect(next(time.Minute))
	}
	snapshot()
	if tr.Ready() {
		digestEmit()
	}
	run(17)
	snap := snapshot() // mid-window, restored into a fresh instance
	if tr, err = New(kind, 12); err != nil {
		t.Fatal(err)
	}
	if err := tr.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	run(40)
	snapshot()
}

// TestTransformGolden pins what every transformation emits and what its
// snapshots hold, bit for bit, to the SHA-256 digests in
// testdata/transform.sha256. The digests were written by the commit
// before the transformers' emission and snapshot seams were folded into
// the Transformer interface; correlation's two moved on purpose when a
// record past a full window began to start the next window and the
// eviction ring left its snapshot, and the mean's two moved for the
// same reason when its buffered records gave way to running sums. They
// must never be regenerated from the code under test: a mismatch means
// features or checkpoints changed.
func TestTransformGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/transform.sha256")
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
	for _, kind := range PaperKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			emits, snaps := sha256.New(), sha256.New()
			goldenStream(t, kind, emits, snaps)
			for name, h := range map[string]hash.Hash{"emit": emits, "snapshot": snaps} {
				key := kind.String() + "/" + name
				if got := hex.EncodeToString(h.Sum(nil)); got != want[key] {
					t.Errorf("%s digest = %s, want %s", key, got, want[key])
				}
				delete(want, key)
			}
		})
	}
	// A digest no kind checked pins nothing: the file and the kinds
	// must agree line for line.
	for key := range want {
		t.Errorf("testdata/transform.sha256 holds %s, which no kind checks", key)
	}
}
