package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/navarchos/pdm"
	"github.com/navarchos/pdm/internal/fleetsim"
	"github.com/navarchos/pdm/internal/wire"
)

func TestPercentiles(t *testing.T) {
	vals := make([]float64, 200)
	for i := range vals {
		vals[199-i] = float64(i + 1) // 200..1, unsorted
	}
	d := summarize(vals)
	if d.N != 200 || d.P50 != 100 || d.Max != 200 {
		t.Fatalf("summarize: N=%d P50=%g Max=%g, want 200/100/200", d.N, d.P50, d.Max)
	}
	if d.TailQ != 0.95 || d.at(d.TailQ) != 190 {
		t.Fatalf("200 samples support p95=190, got p%g=%g", d.TailQ*100, d.at(d.TailQ))
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median of an even sample = %g, want 2.5", got)
	}
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{3, 0.5}, {39, 0.5}, {40, 0.75}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {1000, 0.99}, {10000, 0.999}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	if got := summarize(nil); got.N != 0 || got.P50 != 0 || got.at(0.95) != 0 {
		t.Errorf("empty sample must read 0, got %+v", got)
	}
	// Past its support a fixed percentile degrades to the maximum.
	if got := summarize([]float64{1, 2, 3}).at(0.95); got != 3 {
		t.Errorf("p95 of 3 samples = %g, want the maximum 3", got)
	}
}

func smallFleet(t *testing.T) *fleetsim.Fleet {
	t.Helper()
	cfg := fleetsim.SmallConfig()
	cfg.NumVehicles, cfg.Days = 7, 30
	return fleetsim.Generate(cfg)
}

func TestSplitFrames(t *testing.T) {
	f := smallFleet(t)
	stream, n, err := wire.EncodeStream(nil, f.Records[:1000], nil, 300)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := splitFrames(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != n || n != 4 {
		t.Fatalf("split %d frames, encoder made %d, want 4", len(frames), n)
	}
	var dec wire.Decoder
	var b wire.Batch
	total := 0
	for i, fr := range frames {
		b.Reset()
		used, err := dec.DecodeInto(fr, &b)
		if err != nil || used != len(fr) {
			t.Fatalf("frame %d: decoded %d of %d bytes, err %v", i, used, len(fr), err)
		}
		total += len(b.Records)
	}
	if total != 1000 {
		t.Fatalf("frames carry %d records, want 1000", total)
	}
	if _, err := splitFrames(stream[:len(stream)-1]); err == nil {
		t.Error("a truncated last frame must not split")
	}
	if _, err := splitFrames(append(append([]byte(nil), stream...), 1, 2, 3)); err == nil {
		t.Error("trailing bytes must not split")
	}
	bad := append([]byte(nil), stream...)
	bad[0] = 'X'
	if _, err := splitFrames(bad); err == nil {
		t.Error("bad magic must not split")
	}
}

func TestPartitionKeepsVehicleOrder(t *testing.T) {
	f := smallFleet(t)
	parts, index, err := encodePartitions(f.Records, f.Events, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	owner := map[string]int{}
	lastItem := map[string]time.Time{}
	var dec wire.Decoder
	var b wire.Batch
	records, events := 0, 0
	for p, fs := range parts {
		for i, fr := range fs.frames {
			b.Reset()
			if _, err := dec.DecodeInto(fr, &b); err != nil {
				t.Fatal(err)
			}
			if len(b.Records)+len(b.Events) > 64 {
				t.Fatalf("frame %d/%d carries %d items, limit 64", p, i, len(b.Records)+len(b.Events))
			}
			if len(b.Records) != fs.records[i] || len(b.Events) != fs.events[i] {
				t.Fatalf("frame %d/%d: counted %d+%d, decoded %d+%d", p, i, fs.records[i], fs.events[i], len(b.Records), len(b.Events))
			}
			events += len(b.Events)
			for _, r := range b.Records {
				records++
				if o, seen := owner[r.VehicleID]; seen && o != p {
					t.Fatalf("%s appears in partitions %d and %d", r.VehicleID, o, p)
				}
				owner[r.VehicleID] = p
				if r.Time.Before(lastItem[r.VehicleID]) {
					t.Fatalf("%s goes back in time inside partition %d", r.VehicleID, p)
				}
				lastItem[r.VehicleID] = r.Time
				ref, ok := index.lookup(r.VehicleID, minuteOf(r.Time))
				if !ok || ref != (frameRef{int32(p), int32(i)}) {
					t.Fatalf("index sends %s@%v to %+v (found %v), it is in %d/%d", r.VehicleID, r.Time, ref, ok, p, i)
				}
			}
		}
	}
	if records != len(f.Records) || events != len(f.Events) {
		t.Fatalf("partitions carry %d records and %d events, fleet has %d and %d", records, events, len(f.Records), len(f.Events))
	}
	if len(owner) != 7 {
		t.Fatalf("%d vehicles seen, want 7", len(owner))
	}
	if _, ok := index.lookup("veh-00", 1); ok {
		t.Error("a minute no record has must not resolve")
	}
	if _, ok := index.lookup("nobody", minuteOf(f.Records[0].Time)); ok {
		t.Error("an unknown vehicle must not resolve")
	}

	// The prefix of a single stream carries prefixes of both inputs.
	one, _, err := encodePartitions(f.Records, f.Events, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	pre := one[0].prefix(10)
	b.Reset()
	for _, fr := range pre.frames {
		if _, err := dec.DecodeInto(fr, &b); err != nil {
			t.Fatal(err)
		}
	}
	if len(b.Records) != pre.nRec || len(b.Events) != pre.nEv {
		t.Fatalf("prefix counts %d+%d, carries %d+%d", pre.nRec, pre.nEv, len(b.Records), len(b.Events))
	}
	for i, r := range b.Records {
		if r != f.Records[i] {
			t.Fatalf("prefix record %d is not the fleet's record %d", i, i)
		}
	}
}

// fakeClock advances only when slept on, overshooting by a fixed amount.
type fakeClock struct {
	now       time.Time
	overshoot time.Duration
}

func (f *fakeClock) Now() time.Time { return f.now }
func (f *fakeClock) Sleep(d time.Duration) {
	f.now = f.now.Add(d + f.overshoot)
}

func TestScheduleTimesFromDue(t *testing.T) {
	const interval = 10 * time.Millisecond
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start, overshoot: time.Millisecond}
	var latency []time.Duration
	late := runSchedule(context.Background(), clk, start.Add(interval), interval, 5, func(i int, due time.Time) {
		service := time.Millisecond
		if i == 1 {
			service = 25 * time.Millisecond // a stall: requests 2 and 3 fall due meanwhile
		}
		clk.now = clk.now.Add(service)
		latency = append(latency, clk.Now().Sub(due))
	})
	// Request 0 was slept for and sent 1 ms late; its latency counts
	// that. Request 1 likewise, plus its own 25 ms. Requests 2 and 3 were
	// due at +30 and +40 ms but the connection was busy until +46: their
	// latencies run from their due times, so the wait is in them, while
	// the generator, which sent each the moment it could, was not late.
	wantLatency := []time.Duration{2, 26, 17, 8, 2}
	wantLate := []time.Duration{1, 1, 0, 0, 1}
	for i := range wantLatency {
		if latency[i] != wantLatency[i]*time.Millisecond {
			t.Errorf("request %d: latency %v, want %v ms from its due time", i, latency[i], wantLatency[i])
		}
		if late[i] != wantLate[i]*time.Millisecond {
			t.Errorf("request %d: generator %v late, want %v ms", i, late[i], wantLate[i])
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got := runSchedule(ctx, clk, clk.now, interval, 5, func(int, time.Time) { t.Error("sent after cancel") }); len(got) != 0 {
		t.Errorf("cancelled schedule still sent %d requests", len(got))
	}
}

func TestParseAlarmLine(t *testing.T) {
	at := time.Date(2023, 3, 1, 8, 5, 0, 0, time.UTC)
	// navarchos-serve's own format string.
	line := fmt.Sprintf("%s  %-8s %-32s score=%.4f threshold=%.4f",
		at.Format("2006-01-02 15:04"), "veh-07", "corr(rpm,speed)", 1.23456, 0.98765)
	a, ok := parseAlarmLine(line)
	if !ok || a.vehicle != "veh-07" || a.minute != minuteOf(at) {
		t.Fatalf("parsed %+v ok=%v from %q", a, ok, line)
	}
	long := fmt.Sprintf("%s  %-8s %-32s score=%.4f threshold=%.4f",
		at.Format("2006-01-02 15:04"), "veh-123456", "a feature name with spaces that overflows its column", 1.0, 2.0)
	if a, ok := parseAlarmLine(long); !ok || a.vehicle != "veh-123456" || a.minute != minuteOf(at) {
		t.Fatalf("overflowing columns: parsed %+v ok=%v", a, ok)
	}
	for _, banner := range []string{
		"",
		"ingest data plane on 127.0.0.1:8080 (POST /ingest, GET /fleet /alarms /metrics)",
		"caught terminated; draining",
		"served 1000 records, 3 events from 8 vehicles; 12 alarms journaled",
		"2023-03-01 08:05  veh-07 no score here",
	} {
		if _, ok := parseAlarmLine(banner); ok {
			t.Errorf("%q parsed as an alarm", banner)
		}
	}
}

func TestTamperedScoreFailsVerification(t *testing.T) {
	at := time.Date(2023, 3, 1, 8, 5, 0, 0, time.UTC)
	var want []alarmKey
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	var jsonl bytes.Buffer
	for i := 0; i < 5; i++ {
		e := pdm.AlarmJournalEntry{VehicleID: fmt.Sprintf("veh-%02d", 4-i), Time: at.Add(time.Duration(i) * time.Minute),
			Channel: i, Score: math.Pi * float64(i+1) / 7, Threshold: 1.0 / 3}
		want = append(want, alarmKey{e.VehicleID, e.Time.UnixNano(), e.Channel, math.Float64bits(e.Score), math.Float64bits(e.Threshold)})
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		jsonl.Write(append(b, '\n'))
	}
	sortKeys(want)
	if err := os.WriteFile(path, jsonl.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := diffAlarms(got, want); err != nil {
		t.Fatalf("the journal must round-trip every bit: %v", err)
	}

	flipped := append([]alarmKey(nil), got...)
	flipped[2].Score ^= 1 // the lowest mantissa bit of one score
	if err := diffAlarms(flipped, want); err == nil {
		t.Fatal("one flipped score bit passed verification")
	}
	flipped = append([]alarmKey(nil), got...)
	flipped[0].Threshold ^= 1 << 51
	if err := diffAlarms(flipped, want); err == nil {
		t.Fatal("one flipped threshold bit passed verification")
	}
	if err := diffAlarms(got[:4], want); err == nil {
		t.Fatal("a missing alarm passed verification")
	}
	if err := diffAlarms(append(got, got[4]), want); err == nil {
		t.Fatal("an extra alarm passed verification")
	}

	cells := []gridCell{{Technique: "tranad", Transform: "raw", PHDays: 15, Setting: "setting26", F05: 0.5}}
	tampered := []gridCell{cells[0]}
	tampered[0].F05 = math.Nextafter(0.5, 1)
	if diffCells(cells, cells, "same") != nil || diffCells(tampered, cells, "tampered") == nil {
		t.Fatal("grid cell comparison must be exact")
	}
}

func TestPromSample(t *testing.T) {
	body := []byte(`# HELP pdm_fleet_shard_queue_depth Queued batches per shard.
# TYPE pdm_fleet_shard_queue_depth gauge
pdm_fleet_shard_queue_depth{shard="0"} 3
pdm_fleet_shard_queue_depth{shard="1"} 7
pdm_fleet_shard_queue_depth_other 100
pdm_ingest_bytes_total 2.5e+06
`)
	if sum, max := promSample(body, "pdm_fleet_shard_queue_depth"); sum != 10 || max != 7 {
		t.Errorf("queue depth: sum %g max %g, want 10 and 7", sum, max)
	}
	if sum, _ := promSample(body, "pdm_ingest_bytes_total"); sum != 2.5e6 {
		t.Errorf("bytes: %g, want 2.5e6", sum)
	}
}

func TestTracerSelfTime(t *testing.T) {
	var off *tracer
	if id := off.begin("x", -1, 0); id != -1 || off.len() != 0 {
		t.Fatal("a nil tracer must record nothing")
	}
	off.end(-1)
	tr := &tracer{epoch: time.Now(), spans: []span{
		{Name: "frame", Start: 0, End: 100, Parent: -1, Trace: 1},
		{Name: "wire.decode", Start: 5, End: 35, Parent: 0, Trace: 1},
		{Name: "fleet.admit", Start: 40, End: 90, Parent: 0, Trace: 1},
	}}
	got := tr.byName()
	if got["frame"].Total != 100 || got["frame"].Self != 20 {
		t.Errorf("frame: total %v self %v, want 100ns and 20ns (duration minus children)", got["frame"].Total, got["frame"].Self)
	}
	if got["wire.decode"].Self != 30 || got["fleet.admit"].Count != 1 {
		t.Errorf("children: %+v", got)
	}
	other := &tracer{epoch: tr.epoch.Add(time.Microsecond), spans: []span{
		{Name: "vehicle", Start: 0, End: 10, Parent: -1}, {Name: "core.score", Start: 1, End: 9, Parent: 0}}}
	tr.adopt(other)
	if tr.spans[4].Parent != 3 || tr.spans[3].Start != 1000 {
		t.Errorf("adopt must re-base parents and clocks: %+v", tr.spans[3:])
	}
}

// TestCatalogue holds BENCHMARK.json and the catalogue together.
func TestCatalogue(t *testing.T) {
	if os.Getenv("UPDATE_BENCHMARK_JSON") != "" {
		writeBenchmarkJSON(t)
	}
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var bj struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", bj.Paths)
	}
	if len(bj.Workloads) != len(workloadOrder) {
		t.Fatalf("%d workloads, catalogue has %d", len(bj.Workloads), len(workloadOrder))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadOrder[i] || workloads[w.Name] == nil {
			t.Errorf("workload %d is %q, catalogue says %q", i, w.Name, workloadOrder[i])
		}
		if w.Why != workloadWhy[w.Name] || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be the catalogue's one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, catalogue has %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
				t.Errorf("%s %d: BENCHMARK.json says %+v, catalogue says %s/%s/%s/%g", kind, i, g, w.Name, w.Unit, w.Better, w.Bound)
			}
			if seen[g.Name] || len(g.Name) > 64 || len(g.Unit) > 16 {
				t.Errorf("%s: %q repeats or is too long", kind, g.Name)
			}
			seen[g.Name] = true
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	var list bytes.Buffer
	printList(&list)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !strings.Contains(list.String(), d.Name+" ") {
			t.Errorf("-list does not print %s", d.Name)
		}
	}
}

// writeBenchmarkJSON regenerates ../BENCHMARK.json from the catalogue
// (UPDATE_BENCHMARK_JSON=1 go test -run TestCatalogue ./benchmark).
func writeBenchmarkJSON(t *testing.T) {
	t.Helper()
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type jw struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []jw     `json:"workloads"`
		EndToEnd   []jm     `json:"end_to_end"`
		PerLayer   []jm     `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: 15}
	for _, w := range workloadOrder {
		doc.Workloads = append(doc.Workloads, jw{w, workloadWhy[w]})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		doc.EndToEnd = append(doc.EndToEnd, jm{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, jm{d.Name, d.Unit, d.Better, nil})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("..", "BENCHMARK.json"), append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// serveProcesses lists running processes whose command line names bin.
func serveProcesses(t *testing.T, bin string) []string {
	t.Helper()
	var out []string
	procs, _ := filepath.Glob("/proc/[0-9]*/cmdline")
	for _, p := range procs {
		if b, err := os.ReadFile(p); err == nil && bytes.HasPrefix(b, []byte(bin+"\x00")) {
			out = append(out, p)
		}
	}
	return out
}

// TestSmoke runs every workload at ~1/20 size, timed and traced, so the
// harness cannot rot: the server is built into a temp dir, every
// verification must pass, every metric must be reported, and no server
// process may outlive its run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives navarchos-serve")
	}
	root, err := moduleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	bin, err := buildServer(ctx, root, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadOrder {
		for _, traced := range []bool{false, true} {
			cfg := &runCfg{workload: name, seed: 1, seconds: 0.4, scale: scaleSmoke, trace: traced,
				nproc: runtime.NumCPU(), root: root, serverBin: bin, buildDir: dir, workDir: dir, outDir: dir}
			var report bytes.Buffer
			out, err := run(ctx, cfg, &report)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", name, traced, err, report.String())
			}
			if out.verifyErr != nil || out.failed != 0 || out.attempted < 1 {
				t.Errorf("%s trace=%v: verification %v, %d of %d operations failed\n%s",
					name, traced, out.verifyErr, out.failed, out.attempted, report.String())
			}
			lines := strings.Split(strings.TrimSpace(report.String()), "\n")
			var last resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result object: %v", name, traced, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(last.Metrics) != len(defs) || !last.Correct {
				t.Errorf("%s trace=%v: %d metrics (want %d), correct=%v", name, traced, len(last.Metrics), len(defs), last.Correct)
			}
			for _, d := range defs {
				v, ok := last.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s missing or in unit %q", name, traced, d.Name, v.Unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", name, d.Name, v.Value)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(dir, "trace_"+name+".json")); err != nil {
					t.Errorf("%s: traced run left no span file: %v", name, err)
				}
			}
		}
	}
	if left := serveProcesses(t, bin); len(left) > 0 {
		t.Errorf("server processes outlived their runs: %v", left)
	}
}

// TestServerFailureCarriesStderr: a server that cannot start must fail
// the run with its stderr in the message, and leave nothing running.
func TestServerFailureCarriesStderr(t *testing.T) {
	if testing.Short() {
		t.Skip("builds navarchos-serve")
	}
	root, err := moduleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	bin, err := buildServer(ctx, root, dir)
	if err != nil {
		t.Fatal(err)
	}
	_, err = startServer(ctx, bin, serverOpts{shards: 1, factor: 14, journal: filepath.Join(dir, "no", "such", "dir", "j.jsonl")})
	if err == nil || !strings.Contains(err.Error(), "no such file or directory") {
		t.Fatalf("want the server's own complaint in the error, got: %v", err)
	}
	if left := serveProcesses(t, bin); len(left) > 0 {
		t.Errorf("failed start left processes: %v", left)
	}
}
