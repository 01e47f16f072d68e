package fleetsim

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/navarchos/pdm/internal/obd"
)

// fleetDigest is the SHA-256 of a canonical serialisation of the three
// ordered streams Generate emits: every record (ID, UnixNano,
// Float64bits of each value), then Events, then HiddenEvents. It streams
// into the hash so the 3.4M-record case holds no second copy of the fleet.
func fleetDigest(f *Fleet) string {
	h := sha256.New()
	w := bufio.NewWriterSize(h, 1<<16)
	var b [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		w.Write(b[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		w.WriteString(s)
	}
	u64(uint64(len(f.Records)))
	for i := range f.Records {
		r := &f.Records[i]
		str(r.VehicleID)
		u64(uint64(r.Time.UnixNano()))
		for _, v := range r.Values {
			u64(math.Float64bits(v))
		}
	}
	for _, evs := range [][]obd.Event{f.Events, f.HiddenEvents} {
		u64(uint64(len(evs)))
		for i := range evs {
			ev := &evs[i]
			str(ev.VehicleID)
			u64(uint64(ev.Time.UnixNano()))
			u64(uint64(ev.Type))
			if ev.DTC != nil {
				str(ev.DTC.Code)
				u64(uint64(ev.DTC.Kind))
			} else {
				u64(math.MaxUint64)
			}
			str(ev.Note)
		}
	}
	w.Flush()
	return hex.EncodeToString(h.Sum(nil))
}

// goldenFleets pins Generate's output byte for byte. The digests were
// written from the tree BEFORE generateTelemetry became parallel (one
// vehicle after another into one slice, then sort.SliceStable by time)
// and must never be regenerated from the code under test: a mismatch
// means every exhibit, snapshot and benchmark reference built on these
// fleets has silently changed.
var goldenFleets = []struct {
	name   string
	cfg    func() Config
	seed   int64
	big    bool // 400 vehicles x 100 days: skipped under -short and -race
	digest string
}{
	{"small/seed1", SmallConfig, 1, false, "69ed0af905e5551d6398f6fc1f2023b5d7eb209e866e59b53157e3868a844f16"},
	{"small/seed2", SmallConfig, 2, false, "c210e9b4d31c28277c8ddea451ade0b6fc6868f328715edeb59c9ad089dfa7da"},
	{"small/seed3", SmallConfig, 3, false, "e5145bedc397dd35f465378adcd98266a2559dc89e96f85ecdffda85a6b16303"},
	{"bench/seed1", BenchConfig, 1, false, "a9eaae1facda806a56976b912976f2eaaaa0a7b6387931200e3ebd5e25962bf0"},
	{"default/seed1", DefaultConfig, 1, false, "f784a1442095fbac3a04f98d15f6ebc645e9e290a098a687c628394e5df01302"},
	{"fleet400x100/seed1", fleet400x100, 1, true, "dc22b1e1e05b65d11b3b4e2a2d19910dc71f1d3362e2b4f982e09202b164cca0"},
	{"fleet400x100/seed2", fleet400x100, 2, true, "21e8f245468d51bcf1ba82f12985d128f22da7ad4d8b9ba1c515f8191a98b467"},
}

// fleet400x100 is the benchmark's ingest_burst fleet.
func fleet400x100() Config {
	c := BenchConfig()
	c.NumVehicles, c.Days = 400, 100
	return c
}

func TestGenerateGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, g := range goldenFleets {
		if g.big && (testing.Short() || raceEnabled) {
			continue
		}
		for _, procs := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/procs%d", g.name, procs), func(t *testing.T) {
				runtime.GOMAXPROCS(procs)
				cfg := g.cfg()
				cfg.Seed = g.seed
				if got := fleetDigest(Generate(cfg)); got != g.digest {
					t.Errorf("digest = %s, want %s", got, g.digest)
				}
			})
		}
	}
}
