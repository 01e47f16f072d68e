package obs

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_counter_total", "h")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("t_gauge", "h")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	// Idempotent re-registration returns the same instruments.
	if r.Counter("t_counter_total", "h") != c {
		t.Fatal("re-registration returned a different counter")
	}
	if r.Gauge("t_gauge", "h") != g {
		t.Fatal("re-registration returned a different gauge")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_metric", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("registering t_metric as a gauge should panic")
		}
	}()
	r.Gauge("t_metric", "h")
}

// TestHistogramBucketBoundaries pins the bucket semantics: bounds are
// inclusive upper bounds, values above the last bound land in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_hist", "h", []float64{1, 2, 5})
	for _, v := range []float64{
		0,    // -> le=1
		1,    // -> le=1 (inclusive)
		1.5,  // -> le=2
		2,    // -> le=2 (inclusive)
		2.01, // -> le=5
		5,    // -> le=5 (inclusive)
		5.01, // -> +Inf
		1e9,  // -> +Inf
	} {
		h.Observe(v)
	}
	counts := h.snapshot()
	want := []uint64{2, 2, 2, 2}
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, counts[i], w, counts)
		}
	}
	if got := h.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	wantSum := 0.0 + 1 + 1.5 + 2 + 2.01 + 5 + 5.01 + 1e9
	if got := h.Sum(); got != wantSum {
		t.Fatalf("Sum = %v, want %v", got, wantSum)
	}
}

// TestHistogramConcurrentObserveCollect hammers Observe from many
// goroutines while collecting expositions; run with -race this is the
// registry's data-race gate, and the final counts must be exact.
func TestHistogramConcurrentObserveCollect(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_hist", "h", DefLatencyBuckets)
	c := r.Counter("t_counter_total", "h")
	r.GaugeFunc("t_gauge_fn", "h", func() float64 { return float64(c.Value()) })
	const (
		workers = 8
		perW    = 5000
	)
	stop := make(chan struct{})
	var collector sync.WaitGroup
	collector.Add(1)
	go func() { // concurrent collector
		defer collector.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				h.Observe(float64(i%100) * 1e-6)
				c.Inc()
			}
		}()
	}
	wg.Wait()
	close(stop)
	collector.Wait()
	if got := h.Count(); got != workers*perW {
		t.Fatalf("histogram lost observations: %d, want %d", got, workers*perW)
	}
	if got := c.Value(); got != workers*perW {
		t.Fatalf("counter = %d, want %d", got, workers*perW)
	}
}

// TestExpositionGolden locks the Prometheus text rendering to a golden
// file (regenerate with -update).
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pdm_test_records_total", "Records processed.")
	c.Add(1234)
	g := r.Gauge("pdm_test_queue_depth", "Queued batches.", Label{Key: "shard", Value: "0"})
	g.Set(3)
	g2 := r.Gauge("pdm_test_queue_depth", "Queued batches.", Label{Key: "shard", Value: "1"})
	g2.Set(7)
	r.GaugeFunc("pdm_test_vehicles", "Active vehicles.", func() float64 { return 40 })
	r.CounterFunc("pdm_test_scored_total", "Scored samples.", func() float64 { return 99 })
	h := r.Histogram("pdm_test_latency_seconds", "Stage latency.", []float64{0.001, 0.01, 0.1},
		Label{Key: "stage", Value: "score"})
	for _, v := range []float64{0.0005, 0.002, 0.02, 0.2, 0.05} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
	validateExposition(t, buf.String())
}

// validateExposition checks Prometheus text-format validity line by
// line: HELP/TYPE comments, metric lines `name{labels} value`, and for
// histograms cumulative buckets ending in +Inf with matching _count.
func validateExposition(t *testing.T, text string) {
	t.Helper()
	metricLine := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (NaN|[+-]?(Inf|[0-9].*))$`)
	helpLine := regexp.MustCompile(`^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$`)
	sc := bufio.NewScanner(strings.NewReader(text))
	typed := map[string]string{}
	var lastType, lastName string
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !helpLine.MatchString(line) {
				t.Fatalf("invalid comment line: %q", line)
			}
			f := strings.Fields(line)
			if f[1] == "TYPE" {
				if _, dup := typed[f[2]]; dup {
					t.Fatalf("duplicate TYPE for %s", f[2])
				}
				typed[f[2]] = f[3]
				lastName, lastType = f[2], f[3]
			}
			continue
		}
		if !metricLine.MatchString(line) {
			t.Fatalf("invalid metric line: %q", line)
		}
		name := line
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if base != lastName && name != lastName {
			t.Fatalf("metric %q appears under TYPE block of %q", name, lastName)
		}
		_ = lastType
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramCumulativeBuckets checks the rendered bucket lines are
// cumulative and _count equals the +Inf bucket.
func TestHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_hist", "h", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(99)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, want := range []string{
		`t_hist_bucket{le="1"} 1`,
		`t_hist_bucket{le="2"} 2`,
		`t_hist_bucket{le="+Inf"} 3`,
		`t_hist_count 3`,
		`t_hist_sum 101`,
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("exposition missing %q:\n%s", want, got)
		}
	}
}

// TestFuncReplacement pins last-writer-wins for callback series, which
// is what lets a restored engine take over its predecessor's series.
func TestFuncReplacement(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("t_fn", "h", func() float64 { return 1 })
	r.GaugeFunc("t_fn", "h", func() float64 { return 2 })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "t_fn 2") {
		t.Fatalf("callback not replaced:\n%s", buf.String())
	}
}

func TestFamilies(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "ha")
	r.Histogram("b_seconds", "hb", DefLatencyBuckets)
	r.Counter("a_total", "ha", Label{Key: "x", Value: "1"}) // same family
	fams := r.Families()
	if len(fams) != 2 {
		t.Fatalf("Families = %d, want 2 (%v)", len(fams), fams)
	}
	if fams[0].Name != "a_total" || fams[0].Kind != KindCounter || fams[0].Help != "ha" {
		t.Fatalf("unexpected family %+v", fams[0])
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_total", "h", Label{Key: "v", Value: `a"b\c` + "\n"})
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `v="a\"b\\c\n"`) {
		t.Fatalf("label not escaped:\n%q", buf.String())
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("t_seconds", "h", DefLatencyBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-7)
	}
}

func ExampleRegistry_WritePrometheus() {
	r := NewRegistry()
	r.Counter("pdm_example_total", "An example counter.").Add(3)
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	fmt.Print(buf.String())
	// Output:
	// # HELP pdm_example_total An example counter.
	// # TYPE pdm_example_total counter
	// pdm_example_total 3
}
