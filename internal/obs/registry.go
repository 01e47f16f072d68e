// Package obs is the stack's zero-dependency observability layer: a
// metrics registry (atomic counters, gauges and fixed-bucket latency
// histograms with a lock-free, allocation-free Observe), Prometheus
// text-format exposition, a bounded
// alarm-lifecycle journal that makes every alarm explainable after the
// fact, and a debug HTTP endpoint bundling /metrics, /debug/vars,
// /debug/pprof/* and a /fleet JSON status.
//
// Everything in this package is safe for concurrent use. Instrumented
// call sites throughout core and fleet are nil-safe: a nil *Observer
// means no instrumentation and no overhead, which is how the scoring
// hot path keeps its zero-allocation guarantee intact.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a registered metric for exposition and for the
// vet-obs documentation check.
type Kind int

// The metric kinds. Counter and Gauge own their value; CounterFunc and
// GaugeFunc read it from a callback at collection time (free on the hot
// path — the instrumented code never touches them).
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
	KindCounterFunc
	KindGaugeFunc
)

func (k Kind) String() string {
	switch k {
	case KindCounter, KindCounterFunc:
		return "counter"
	case KindGauge, KindGaugeFunc:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Label is one metric label pair. Series of the same family are told
// apart by their labels (e.g. per-shard queue depths).
type Label struct {
	Key, Value string
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// funcMetric is a collection-time callback series (CounterFunc or
// GaugeFunc). Re-registering the same name+labels replaces the
// callback — last writer wins — so a freshly built engine can take over
// the series its predecessor registered on a shared registry.
type funcMetric struct {
	mu sync.Mutex
	fn func() float64
}

func (f *funcMetric) set(fn func() float64) {
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

func (f *funcMetric) value() float64 {
	f.mu.Lock()
	fn := f.fn
	f.mu.Unlock()
	if fn == nil {
		return 0
	}
	return fn()
}

// Histogram is a fixed-bucket histogram with lock-free, allocation-free
// observation: bucket counts and the value sum are atomics, and the
// bucket search walks a small fixed bounds slice. Bounds are inclusive
// upper bounds in ascending order; an implicit +Inf bucket catches the
// rest. Latency histograms observe seconds (Prometheus convention).
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1, last is +Inf
	sumBits atomic.Uint64   // float64 bits, CAS-accumulated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// snapshot reads all bucket counts once.
func (h *Histogram) snapshot() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// DefLatencyBuckets are the default bounds, in seconds, for stage and
// batch latency histograms: 1µs to 1s, roughly ×2.5 per step, with a
// sub-microsecond bucket for the allocation-free scoring fast path.
var DefLatencyBuckets = []float64{
	250e-9, 1e-6, 2.5e-6, 5e-6, 10e-6, 25e-6, 50e-6, 100e-6,
	250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 100e-3, 1,
}

// DefScoreBuckets are the default bounds for anomaly-score distribution
// histograms. Scores are non-negative but live on very different scales
// per technique (conformal deviations in [0,1], closest-pair distances
// in raw feature units), so the bounds span seven decades.
var DefScoreBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 25, 50, 100, 250, 1000,
}

// entry is one registered series.
type entry struct {
	name   string
	labels string // preformatted, sorted: `shard="0"` — empty for none
	kind   Kind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      *funcMetric
}

// Family describes one metric family (all series sharing a name): the
// unit the vet-obs documentation check works in.
type Family struct {
	Name string
	Help string
	Kind Kind
}

// Registry holds registered metrics and renders them in Prometheus text
// exposition format. Registration is idempotent: requesting an existing
// name+labels returns the existing instrument (for Func variants the
// callback is replaced). Registering the same name with a different
// kind or help panics — that is a programming error the vet-obs check
// exists to keep out of the tree.
type Registry struct {
	mu       sync.Mutex
	families []Family
	famIdx   map[string]int
	entries  []*entry
	index    map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		famIdx: map[string]int{},
		index:  map[string]*entry{},
	}
}

// labelString renders labels sorted by key, Prometheus-escaped.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// register returns the series for name+labels, creating family and
// series on first sight.
func (r *Registry) register(name, help string, kind Kind, labels []Label, make func() *entry) *entry {
	ls := labelString(labels)
	key := name + "\x00" + ls
	r.mu.Lock()
	defer r.mu.Unlock()
	if fi, ok := r.famIdx[name]; ok {
		f := r.families[fi]
		if f.Kind != kind || f.Help != help {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v/%q, first seen as %v/%q",
				name, kind, help, f.Kind, f.Help))
		}
	} else {
		r.famIdx[name] = len(r.families)
		r.families = append(r.families, Family{Name: name, Help: help, Kind: kind})
	}
	if e, ok := r.index[key]; ok {
		return e
	}
	e := make()
	e.name, e.labels, e.kind = name, ls, kind
	r.index[key] = e
	r.entries = append(r.entries, e)
	return e
}

// Counter registers (or finds) a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	e := r.register(name, help, KindCounter, labels, func() *entry {
		return &entry{counter: &Counter{}}
	})
	return e.counter
}

// Gauge registers (or finds) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	e := r.register(name, help, KindGauge, labels, func() *entry {
		return &entry{gauge: &Gauge{}}
	})
	return e.gauge
}

// CounterFunc registers a collection-time counter callback. The
// callback must be monotone non-decreasing and safe to call from any
// goroutine. Re-registering replaces the callback.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	e := r.register(name, help, KindCounterFunc, labels, func() *entry {
		return &entry{fn: &funcMetric{}}
	})
	e.fn.set(fn)
}

// GaugeFunc registers a collection-time gauge callback, replacing any
// previous callback for the series.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	e := r.register(name, help, KindGaugeFunc, labels, func() *entry {
		return &entry{fn: &funcMetric{}}
	})
	e.fn.set(fn)
}

// Histogram registers (or finds) a histogram series with the given
// inclusive upper bounds (ascending; an implicit +Inf bucket is added).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	e := r.register(name, help, KindHistogram, labels, func() *entry {
		b := make([]float64, len(bounds))
		copy(b, bounds)
		for i := 1; i < len(b); i++ {
			if b[i] <= b[i-1] {
				panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
			}
		}
		return &entry{hist: &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}}
	})
	return e.hist
}

// Families lists every registered metric family in registration order
// (the vet-obs documentation check walks this).
func (r *Registry) Families() []Family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Family, len(r.families))
	copy(out, r.families)
	return out
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4): families in registration order, each with its
// HELP and TYPE line followed by every series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	families := make([]Family, len(r.families))
	copy(families, r.families)
	entries := make([]*entry, len(r.entries))
	copy(entries, r.entries)
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, f := range families {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.Name, f.Help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.Name, f.Kind)
		for _, e := range entries {
			if e.name != f.Name {
				continue
			}
			writeSeries(bw, e)
		}
	}
	return bw.Flush()
}

func writeSeries(w *bufio.Writer, e *entry) {
	switch e.kind {
	case KindCounter:
		fmt.Fprintf(w, "%s %d\n", seriesName(e.name, e.labels), e.counter.Value())
	case KindGauge:
		fmt.Fprintf(w, "%s %d\n", seriesName(e.name, e.labels), e.gauge.Value())
	case KindCounterFunc, KindGaugeFunc:
		fmt.Fprintf(w, "%s %s\n", seriesName(e.name, e.labels), formatFloat(e.fn.value()))
	case KindHistogram:
		h := e.hist
		counts := h.snapshot()
		var cum uint64
		for i, b := range h.bounds {
			cum += counts[i]
			fmt.Fprintf(w, "%s %d\n", seriesName(e.name+"_bucket", joinLabels(e.labels, `le="`+formatFloat(b)+`"`)), cum)
		}
		cum += counts[len(counts)-1]
		fmt.Fprintf(w, "%s %d\n", seriesName(e.name+"_bucket", joinLabels(e.labels, `le="+Inf"`)), cum)
		fmt.Fprintf(w, "%s %s\n", seriesName(e.name+"_sum", e.labels), formatFloat(h.Sum()))
		fmt.Fprintf(w, "%s %d\n", seriesName(e.name+"_count", e.labels), cum)
	}
}

func seriesName(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
