package obsv

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metric is one exportable series. Implementations render themselves in
// the Prometheus text exposition format (HELP/TYPE header plus sample
// lines) so /metrics is a straight walk of the registry.
type metric interface {
	metricName() string
	writeProm(w io.Writer)
}

// Counter is a monotonically increasing counter. All methods are safe
// on a nil receiver (they no-op / return zero), so instrumentation call
// sites never need their own nil checks.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Tally is one countable event kept in one set of books: its owner's
// figure N and its /metrics series, moved together by Inc or Add — the
// event's only increment site, so a Stats figure and its series cannot
// disagree. The owner guards N as it guards its other counters; a nil
// Series counts N alone.
type Tally struct {
	N      uint64
	Series *Counter
}

// Inc counts one event.
func (t *Tally) Inc() {
	t.N++
	t.Series.Inc()
}

// Add counts n events.
func (t *Tally) Add(n uint64) {
	t.N += n
	t.Series.Add(n)
}

func (c *Counter) metricName() string { return c.name }

func (c *Counter) writeProm(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
		c.name, c.help, c.name, c.name, c.v.Load())
}

// Gauge is a settable instantaneous value.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the stored value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

func (g *Gauge) metricName() string { return g.name }

func (g *Gauge) writeProm(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n",
		g.name, g.help, g.name, g.name, g.v.Load())
}

// labeled renders one series of a labeled gauge family: the HELP/TYPE
// header carries the bare family name (a valid Prometheus metric name),
// the sample line carries the label set. The registry deduplicates on
// name+labels, so one family fans out into one series per label set —
// the per-shard queue depths a compile farm exports.
type labeled struct {
	family, labels string // labels rendered `k="v",...`, sorted by key
	g              *Gauge // the bare gauge holding the value
}

// LabelSet renders a label map in Prometheus sample syntax, keys sorted.
func LabelSet(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", k, labels[k])
	}
	return sb.String()
}

func (l *labeled) metricName() string { return l.family + "{" + l.labels + "}" }

func (l *labeled) writeProm(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s{%s} %d\n",
		l.family, l.g.help, l.family, l.family, l.labels, l.g.v.Load())
}

// Histogram is a fixed-bucket cumulative histogram over uint64 samples.
// Samples are recorded in a native integer unit (picoseconds of virtual
// time, nanoseconds of wall time, engines per batch); `scale` divides
// values only at render time so the exported series follow the
// Prometheus base-unit convention (seconds) without any floating point
// on the record path. Observe is lock-free: one atomic add into the
// bucket, one into the sum, one into the count.
type Histogram struct {
	name, help string
	bounds     []uint64 // ascending upper bounds; +Inf is implicit
	scale      float64  // render divisor (0 or 1 = raw unit)
	counts     []atomic.Uint64
	sum        atomic.Uint64
	n          atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns how many samples have been observed.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of all observed samples, in the native unit.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

func (h *Histogram) metricName() string { return h.name }

// promFloat renders a scaled value without scientific notation (some
// scrapers are picky) and without trailing-zero noise.
func promFloat(v float64) string {
	s := strconv.FormatFloat(v, 'f', -1, 64)
	return s
}

func (h *Histogram) writeProm(w io.Writer) {
	scale := h.scale
	if scale == 0 {
		scale = 1
	}
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", h.name, h.help, h.name)
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", h.name, promFloat(float64(b)/scale), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, cum)
	fmt.Fprintf(w, "%s_sum %s\n", h.name, promFloat(float64(h.sum.Load())/scale))
	fmt.Fprintf(w, "%s_count %d\n", h.name, h.n.Load())
}

// ExpBuckets returns count ascending bucket bounds starting at start and
// multiplying by factor, for registering histograms over quantities that
// span orders of magnitude.
func ExpBuckets(start uint64, factor float64, count int) []uint64 {
	out := make([]uint64, 0, count)
	v := float64(start)
	for i := 0; i < count; i++ {
		out = append(out, uint64(v))
		v *= factor
	}
	return out
}

// registry is an ordered, named collection of metrics.
type registry struct {
	mu      sync.Mutex
	metrics []metric
	byName  map[string]metric
}

func (r *registry) add(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName == nil {
		r.byName = map[string]metric{}
	}
	if _, dup := r.byName[m.metricName()]; dup {
		panic("obsv: duplicate metric " + m.metricName())
	}
	r.byName[m.metricName()] = m
	r.metrics = append(r.metrics, m)
}

// writeProm renders every registered metric in registration order.
func (r *registry) writeProm(w io.Writer) {
	r.mu.Lock()
	ms := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	for _, m := range ms {
		m.writeProm(w)
	}
}

// NewCounter registers a counter. Returns nil (a valid no-op counter)
// on a nil Observer.
func (o *Observer) NewCounter(name, help string) *Counter {
	if o == nil {
		return nil
	}
	c := &Counter{name: name, help: help}
	o.reg.add(c)
	return c
}

// NewGauge registers a gauge. Returns nil on a nil Observer.
func (o *Observer) NewGauge(name, help string) *Gauge {
	if o == nil {
		return nil
	}
	g := &Gauge{name: name, help: help}
	o.reg.add(g)
	return g
}

// NewLabeledGauge registers one series of a labeled gauge family (e.g.
// cascade_farm_queue_depth{shard="0"}). Series of one family are
// distinct metrics sharing a name; registering the same name+labels twice
// panics like any duplicate, so callers cache the returned gauge per
// label set. Returns nil on a nil Observer.
func (o *Observer) NewLabeledGauge(name, help string, labels map[string]string) *Gauge {
	if o == nil {
		return nil
	}
	g := &Gauge{name: name, help: help}
	o.reg.add(&labeled{family: name, labels: LabelSet(labels), g: g})
	return g
}

// NewHistogram registers a histogram over the given ascending bucket
// bounds (in the native unit); scale divides values at render time so
// the exported series use Prometheus base units. Returns nil on a nil
// Observer.
func (o *Observer) NewHistogram(name, help string, bounds []uint64, scale float64) *Histogram {
	if o == nil {
		return nil
	}
	h := &Histogram{
		name:   name,
		help:   help,
		bounds: append([]uint64(nil), bounds...),
		scale:  scale,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	o.reg.add(h)
	return h
}

// WriteMetrics renders the full registry in the Prometheus text
// exposition format. Safe on a nil Observer (writes nothing).
func (o *Observer) WriteMetrics(w io.Writer) {
	if o == nil {
		return
	}
	o.reg.writeProm(w)
}

// MetricsText is WriteMetrics into a string (the REPL's :metrics).
func (o *Observer) MetricsText() string {
	if o == nil {
		return ""
	}
	var sb strings.Builder
	o.WriteMetrics(&sb)
	return sb.String()
}
