// Package telemetry is the serving stack's always-on metrics core: a
// small, allocation-free set of instruments (sharded atomic counters,
// log-bucketed latency histograms, point-in-time gauges) plus a
// Prometheus text-format exposition writer.
//
// The design discipline mirrors the resource governor's: telemetry is
// host bookkeeping, never simulated work. Nothing here emits micro-events
// or touches the attribution pipeline, and the record path takes no locks
// and performs no allocations — a counter add is one atomic RMW on a
// padded cache line, a histogram observation is two. All record methods
// are safe on nil receivers, so an unwired subsystem pays a single
// predictable branch.
//
// Scrapes (Registry.WritePrometheus) are the slow path: they read the
// same atomic cells the recorders write, so a scrape concurrent with
// recording sees a torn-but-monotonic snapshot — every counter value is
// one that existed at some instant, never garbage, and successive scrapes
// never go backwards. Recording is ordered so a histogram's bucket totals
// always cover at least its count (see Histogram).
package telemetry

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// shards is the number of cells a Counter spreads its adds across. Power
// of two; sized so a machine's worth of Ps rarely collide on one line.
const shards = 16

// cell is a cache-line-padded atomic counter, so adjacent shards (and
// adjacent histogram buckets) never false-share.
type cell struct {
	n atomic.Uint64
	_ [7]uint64
}

// shardSeq hands out shard hints round-robin as Ps first ask for one.
var shardSeq atomic.Uint32

// shardPool caches one shard hint per P: Get/Put are per-P and
// allocation-free at steady state, so concurrent recorders on different
// Ps settle onto different cells without any global contention point.
var shardPool = sync.Pool{New: func() interface{} {
	h := new(uint32)
	*h = shardSeq.Add(1) * 0x9E3779B9 // golden-ratio spread
	return h
}}

// shard returns this goroutine's (really: this P's) preferred shard.
func shard() uint32 {
	h := shardPool.Get().(*uint32)
	s := *h
	shardPool.Put(h)
	return s & (shards - 1)
}

// Counter is a monotonically increasing sharded atomic counter. The zero
// value is unusable; obtain one from Registry.Counter or CounterVec. All
// methods are safe on a nil receiver (no-op / zero).
type Counter struct {
	cells [shards]cell
}

// Add adds n to the counter.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.cells[shard()].n.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the counter's current total.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var t uint64
	for i := range c.cells {
		t += c.cells[i].n.Load()
	}
	return t
}

// CounterVec is a fixed family of counters keyed by one label whose value
// set is known at construction (exit classes, overhead categories). The
// record path indexes an array — no map lookups, no allocation.
type CounterVec struct {
	children []*Counter
}

// Add adds n to the child at label index i. Out-of-range indexes are
// dropped rather than panicking (a malformed class must not take down
// the record path). Safe on a nil receiver.
func (v *CounterVec) Add(i int, n uint64) {
	if v == nil || i < 0 || i >= len(v.children) {
		return
	}
	v.children[i].Add(n)
}

// Inc adds one to the child at label index i.
func (v *CounterVec) Inc(i int) { v.Add(i, 1) }

// Value returns the current total of the child at label index i.
func (v *CounterVec) Value(i int) uint64 {
	if v == nil || i < 0 || i >= len(v.children) {
		return 0
	}
	return v.children[i].Value()
}

// collector is one registered metric family, exposable in Prometheus
// text format.
type collector interface {
	expose(w io.Writer) error
}

// Registry holds registered metric families and renders them in
// registration order. Registration takes a lock; recording never does.
type Registry struct {
	mu   sync.Mutex
	fams []collector
	seen map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{seen: make(map[string]bool)}
}

// register validates the family name and appends the collector.
func (r *Registry) register(name string, c collector) {
	if !validName(name) {
		panic("telemetry: invalid metric name " + name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seen[name] {
		panic("telemetry: duplicate metric name " + name)
	}
	r.seen[name] = true
	r.fams = append(r.fams, c)
}

// validName checks the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, &counterFam{name: name, help: help, children: []counterChild{{labels: "", c: c}}})
	return c
}

// CounterFunc registers a counter read from fn at scrape time, for a
// subsystem that already keeps its own lifetime counts under its own
// lock (the sfcache instances). fn must never decrease; like GaugeFunc's
// callback it runs on the scrape path only.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(name, &counterFuncFam{name: name, help: help, fn: fn})
}

// CounterVec registers a counter family keyed by one label over a fixed
// value set.
func (r *Registry) CounterVec(name, help, label string, values []string) *CounterVec {
	fam := &counterFam{name: name, help: help}
	v := &CounterVec{}
	for _, val := range values {
		c := &Counter{}
		v.children = append(v.children, c)
		fam.children = append(fam.children, counterChild{labels: renderLabel(label, val), c: c})
	}
	r.register(name, fam)
	return v
}

// GaugeFunc registers a point-in-time gauge evaluated at scrape time.
// The callback runs on the scrape path only, so it may take locks (e.g.
// snapshotting pool occupancy under the pool mutex).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, &gaugeFam{name: name, help: help, fn: fn})
}

// GaugeFuncVec registers a gauge family keyed by one label over a fixed
// value set, evaluated at scrape time: fn(i) is called with the label
// index for each series (e.g. per-backend health in a routing tier).
// Like GaugeFunc, the callback runs on the scrape path only.
func (r *Registry) GaugeFuncVec(name, help, label string, values []string, fn func(i int) float64) {
	fam := &gaugeVecFam{name: name, help: help, fn: fn}
	for _, val := range values {
		fam.labels = append(fam.labels, renderLabel(label, val))
	}
	r.register(name, fam)
}

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]collector, len(r.fams))
	copy(fams, r.fams)
	r.mu.Unlock()
	for _, f := range fams {
		if err := f.expose(w); err != nil {
			return err
		}
	}
	return nil
}

// renderLabel renders a single-pair label set, escaping the value per the
// exposition format.
func renderLabel(label, value string) string {
	return "{" + label + `="` + escapeLabel(value) + `"}`
}

func escapeLabel(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, s[i])
		}
	}
	return string(out)
}

// counterFam renders one counter family.
type counterFam struct {
	name, help string
	children   []counterChild
}

type counterChild struct {
	labels string
	c      *Counter
}

func (f *counterFam) expose(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", f.name, f.help, f.name); err != nil {
		return err
	}
	for _, ch := range f.children {
		if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, ch.labels, ch.c.Value()); err != nil {
			return err
		}
	}
	return nil
}

// counterFuncFam renders one callback counter.
type counterFuncFam struct {
	name, help string
	fn         func() uint64
}

func (f *counterFuncFam) expose(w io.Writer) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
		f.name, f.help, f.name, f.name, f.fn())
	return err
}

// gaugeFam renders one callback gauge.
type gaugeFam struct {
	name, help string
	fn         func() float64
}

func (f *gaugeFam) expose(w io.Writer) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
		f.name, f.help, f.name, f.name, formatFloat(f.fn()))
	return err
}

// gaugeVecFam renders one labelled callback-gauge family.
type gaugeVecFam struct {
	name, help string
	labels     []string
	fn         func(i int) float64
}

func (f *gaugeVecFam) expose(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", f.name, f.help, f.name); err != nil {
		return err
	}
	for i, labels := range f.labels {
		if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labels, formatFloat(f.fn(i))); err != nil {
			return err
		}
	}
	return nil
}

// formatFloat renders a float the way Prometheus expects (shortest
// round-trip representation).
func formatFloat(v float64) string {
	return fmt.Sprintf("%g", v)
}
