package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/timeseries"
	"github.com/navarchos/pdm/internal/wire"
)

// postMux drives one binary ingest POST straight through the mux, with
// no connection and no client goroutine between the caller and the
// handler — the way the allocation bound and the handler benchmark see
// the request path.
func postMux(s *server, frames []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	s.mux.ServeHTTP(w, httptest.NewRequest("POST", "/ingest", bytes.NewReader(frames)))
	return w
}

// postMuxOK is postMux for a request that must be admitted in full.
func postMuxOK(t testing.TB, s *server, frames []byte) ingestResponse {
	t.Helper()
	w := postMux(s, frames)
	if w.Code != http.StatusOK {
		t.Fatalf("POST /ingest: %d %s", w.Code, w.Body)
	}
	var ir ingestResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ir); err != nil {
		t.Fatal(err)
	}
	return ir
}

// parkedDecoder returns the decoder the pool would hand the next
// request on this goroutine, and parks it again.
func parkedDecoder(s *server) *wire.Decoder {
	dec := s.decoders.Get().(*wire.Decoder)
	s.decoders.Put(dec)
	return dec
}

// burst is a synthetic backfill in ingest_burst's shape: nveh vehicles
// reporting round-robin, one record per vehicle per minute, so a frame
// of any size has vehicle run-length 1 and every vehicle's records are
// chronological across consecutive frames.
type burst struct {
	nveh int
	next int // records handed out so far
	ids  []string
	lcg  uint64
}

func newBurst(nveh int) *burst {
	b := &burst{nveh: nveh, ids: make([]string, nveh), lcg: 12345}
	for i := range b.ids {
		b.ids[i] = fmt.Sprintf("veh-%03d", i)
	}
	return b
}

// frame encodes the next items records as one NVWIRE1 frame.
func (b *burst) frame(t testing.TB, items int) []byte {
	t.Helper()
	base := time.Date(2023, 3, 1, 8, 0, 0, 0, time.UTC)
	var enc wire.Encoder
	enc.Begin()
	for i := 0; i < items; i++ {
		var r timeseries.Record
		r.VehicleID = b.ids[b.next%b.nveh]
		r.Time = base.Add(time.Duration(b.next/b.nveh) * time.Minute)
		for p := range r.Values {
			b.lcg = b.lcg*6364136223846793005 + 1442695040888963407
			r.Values[p] = 50 + float64(b.lcg>>40)/float64(1<<24)
		}
		enc.Record(&r)
		b.next++
	}
	enc.End()
	if enc.Err() != nil {
		t.Fatal(enc.Err())
	}
	return enc.Bytes()
}

// burstServer builds a server whose threshold factor no score reaches,
// so the engine's steady state raises no alarms and allocates nothing:
// what the allocation counters then see is the request path alone.
func burstServer(t testing.TB) *server {
	t.Helper()
	s, err := newServer(serverConfig{shards: 2, factor: 1e12, journalCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.close() }) //nolint:errcheck // engine already exercised
	return s
}

// warmBurst feeds every vehicle past its profile fill and first fit,
// after which the per-vehicle pipelines score without allocating.
func warmBurst(t testing.TB, s *server, b *burst) {
	t.Helper()
	for b.next < b.nveh*96 {
		postMuxOK(t, s, b.frame(t, 512))
	}
	s.eng.VehicleIDs() // barrier: every fit has happened
}

// TestIngestPooledDecoderSurvivesCorruptRequest pins the first reuse
// hazard: a request that dies mid-stream (a CRC flip in a later frame,
// a body cut inside a payload) parks a decoder holding a half-filled
// batch and a half-read buffer. The next request to draw that decoder
// must admit exactly its own frames — nothing replayed from the dead
// stream, nothing of its own lost.
func TestIngestPooledDecoderSurvivesCorruptRequest(t *testing.T) {
	s := burstServer(t)
	b := newBurst(40)
	const items = 64
	want := uint64(0) // records the engine must have seen

	three := func() ([]byte, int) {
		var stream []byte
		first := 0
		for i := 0; i < 3; i++ {
			f := b.frame(t, items)
			if i == 0 {
				first = len(f)
			}
			stream = append(stream, f...)
		}
		return stream, first
	}

	crcFlip, first := three()
	crcFlip[first+wire.HeaderSize+9] ^= 0x20 // second frame's payload
	cut, first2 := three()
	cut = cut[:first2+wire.HeaderSize+100] // second frame's payload, cut short

	for _, tc := range []struct {
		name string
		bad  []byte
	}{{"crc flip", crcFlip}, {"truncated", cut}} {
		dec := parkedDecoder(s)
		if w := postMux(s, tc.bad); w.Code != http.StatusBadRequest {
			t.Fatalf("%s: %d %s, want 400", tc.name, w.Code, w.Body)
		}
		want += items // the frame ahead of the damage stays admitted
		if got := parkedDecoder(s); got != dec && !raceEnabled {
			t.Fatalf("%s: the failed request did not park the decoder it drew", tc.name)
		}
		good, _ := three()
		ir := postMuxOK(t, s, good)
		if ir.Frames != 3 || ir.Records != 3*items || ir.Events != 0 {
			t.Fatalf("%s: request after the failure admitted %+v, want 3 frames / %d records",
				tc.name, ir, 3*items)
		}
		want += 3 * items
		if got := s.eng.StatsConsistent().RecordsIn; got != want {
			t.Fatalf("%s: engine saw %d records, want %d", tc.name, got, want)
		}
	}
}

// TestIngestPooledDecoderDropsHandoffSink pins the second: the handoff
// sink is a closure over one request's response. After a handoff POST
// the parked decoder must not hold it, and a plain telemetry POST that
// draws the same decoder reports no handoffs.
func TestIngestPooledDecoderDropsHandoffSink(t *testing.T) {
	src, dst := burstServer(t), burstServer(t)
	b := newBurst(4)
	postMuxOK(t, src, b.frame(t, 64))
	vs, err := src.eng.ExtractVehicle(b.ids[0])
	if err != nil {
		t.Fatal(err)
	}
	handoff, err := wire.AppendHandoff(nil, vs.Encode())
	if err != nil {
		t.Fatal(err)
	}

	if ir := postMuxOK(t, dst, handoff); ir.Handoffs != 1 {
		t.Fatalf("handoff POST answered %+v, want 1 handoff", ir)
	}
	dec := parkedDecoder(dst)
	if dec.HandoffSink != nil {
		t.Fatal("a parked decoder still holds the last request's handoff sink")
	}
	// Vehicles 1..3 only: vehicle 0 now lives on dst with src's history.
	var enc wire.Encoder
	for i := 1; i < 4; i++ {
		enc.Record(&timeseries.Record{VehicleID: b.ids[i], Time: time.Date(2023, 3, 2, 0, i, 0, 0, time.UTC)})
	}
	enc.End()
	ir := postMuxOK(t, dst, enc.Bytes())
	if ir.Handoffs != 0 || ir.Records != 3 {
		t.Fatalf("telemetry POST after a handoff answered %+v, want 3 records and no handoffs", ir)
	}
	if got := parkedDecoder(dst); got != dec && !raceEnabled {
		t.Fatal("the telemetry request did not reuse the handoff request's decoder")
	}
}

// TestIngestConcurrentPosters is the race gate for the pool: one poster
// per vehicle, each uploading its vehicle's stream in order as many
// small requests over real connections, all at once. Decoders change
// hands between posters constantly; the merged journal must still be
// Float64bits-identical to an in-memory Replay of the whole fleet.
func TestIngestConcurrentPosters(t *testing.T) {
	f := testFleet()

	sref, _ := namedServer(t, "ref", nil)
	if err := sref.eng.Replay(f.Records, f.Events); err != nil {
		t.Fatal(err)
	}

	recs := map[string][]timeseries.Record{}
	evs := map[string][]obd.Event{}
	for _, r := range f.Records {
		recs[r.VehicleID] = append(recs[r.VehicleID], r)
	}
	for _, ev := range f.Events {
		evs[ev.VehicleID] = append(evs[ev.VehicleID], ev)
	}

	s, ts := namedServer(t, "", nil)
	var wg sync.WaitGroup
	errs := make(chan string, len(recs))
	for id := range recs {
		// 97-item frames, three per request: frame and request
		// boundaries fall mid-stream at different places per vehicle.
		stream, _, err := wire.EncodeStream(nil, recs[id], evs[id], 97)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for len(stream) > 0 {
				end := 0
				for k := 0; k < 3 && end < len(stream); k++ {
					end += wire.HeaderSize + int(binary.LittleEndian.Uint32(stream[end+6:]))
				}
				resp, err := http.Post(ts.URL+"/ingest", "application/octet-stream", bytes.NewReader(stream[:end]))
				if err != nil {
					errs <- err.Error()
					return
				}
				resp.Body.Close() //nolint:errcheck // status is all that matters
				if resp.StatusCode != http.StatusOK {
					errs <- id + ": " + resp.Status
					return
				}
				stream = stream[end:]
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	for _, sv := range []*server{s, sref} {
		sv.eng.Flush()
		sv.eng.VehicleIDs() // barrier: every alarm is journaled
	}
	got, want := journalKeys(s), journalKeys(sref)
	if len(want) == 0 {
		t.Fatal("the replay raised no alarms; the gate is vacuous")
	}
	if len(got) != len(want) {
		t.Fatalf("concurrent posters journaled %d alarms, replay %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("alarm %d diverged from replay:\n  got  %+v\n  want %+v", i, got[i], want[i])
		}
	}
}

// Per-POST ceilings for the binary ingest handler once its decoder is
// warm. What is left is per request, not per record: the recorder and
// request httptest builds, the body wrappers, one provenance context
// per frame and the JSON reply.
const (
	maxPostAllocs = 64
	maxPostBytes  = 16 << 10
)

// TestIngestHandlerAllocBound holds the handler to those ceilings at
// three frame sizes. A request path that rebuilt its decoder (as it did
// before the pool: 479 allocations and 257 KB for 512 items) would
// scale with the frame — a fresh intern table alone is one allocation
// per vehicle — so the bound not moving from 64 to 2048 items is the
// proof that decode state is reused.
func TestIngestHandlerAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops decoders on purpose under -race")
	}
	// One P, as testing.AllocsPerRun runs: sync.Pool keeps a slot per P,
	// so a test goroutine that migrates mid-run would draw a second,
	// cold decoder and count its warm-up.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := burstServer(t)
	b := newBurst(400)
	warmBurst(t, s, b)

	// Each POST is measured on its own, with the engine quiesced in
	// between: the shards have then handed every batch buffer back to
	// their free lists, so the window holds the request path and the
	// (allocation-free) scoring of its records, not the engine growing
	// its buffer population under a producer that outruns it.
	const posts = 16
	for _, items := range []int{64, 512, 2048} {
		var m0, m1 runtime.MemStats
		var mallocs, total uint64
		for i := 0; i <= posts; i++ {
			frame := b.frame(t, items)
			runtime.ReadMemStats(&m0)
			w := postMux(s, frame)
			runtime.ReadMemStats(&m1)
			if w.Code != http.StatusOK {
				t.Fatalf("%d items: %d %s", items, w.Code, w.Body)
			}
			if i > 0 { // the first POST sizes the payload buffer and batch
				mallocs += m1.Mallocs - m0.Mallocs
				total += m1.TotalAlloc - m0.TotalAlloc
			}
			s.eng.StatsConsistent()
		}
		allocs := float64(mallocs) / posts
		bytesPer := float64(total) / posts
		t.Logf("%4d items/frame: %.1f allocs, %.0f B per POST", items, allocs, bytesPer)
		if allocs > maxPostAllocs || bytesPer > maxPostBytes {
			t.Fatalf("%d items/frame: %.1f allocs and %.0f B per POST, want at most %d and %d",
				items, allocs, bytesPer, maxPostAllocs, maxPostBytes)
		}
	}
}

// BenchmarkIngestHandler times one POST of ingest_burst's shape — a
// 512-item frame over 400 vehicles, run-length 1 — through the mux,
// engine admission included. B/op and allocs/op are the numbers
// TestIngestHandlerAllocBound bounds.
func BenchmarkIngestHandler(b *testing.B) {
	s := burstServer(b)
	src := newBurst(400)
	warmBurst(b, s, src)
	// A ring of distinct frames, so time keeps advancing per vehicle
	// for 64 frames at a stretch, encoded outside the timer.
	ring := make([][]byte, 64)
	for i := range ring {
		ring[i] = src.frame(b, 512)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(ring[0])))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := postMux(s, ring[i%len(ring)]); w.Code != http.StatusOK {
			b.Fatalf("POST /ingest: %d %s", w.Code, w.Body)
		}
	}
	b.StopTimer()
	s.eng.VehicleIDs() // drain before close
}
