// Package telemetry is the serving stack's always-on metrics core: a
// small, allocation-free set of instruments (sharded atomic counters,
// log-bucketed latency histograms, point-in-time gauges) plus a
// Prometheus text-format exposition writer.
//
// The design discipline mirrors the resource governor's: telemetry is
// host bookkeeping, never simulated work. Nothing here emits micro-events
// or touches the attribution pipeline, and the record path takes no locks
// and performs no allocations — a counter add is one atomic RMW on a
// padded cache line, a histogram observation is two. Everything is inert
// when unobserved: every record method is safe on a nil receiver, and a
// nil *Registry registers nothing and exposes nothing, so an unwired
// subsystem pays a single predictable branch per record site.
//
// There is one family type per kind: Counter/CounterVec, Histogram/
// HistogramVec, and the scrape-time callbacks (CounterFunc, GaugeFunc,
// DynamicGaugeFunc). A labelled family keeps its children in a
// copy-on-write slice, so a family whose label set is fixed at
// registration (exit classes) and one that grows at runtime (a
// hot-reloadable fleet's backends) are the same type.
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
// value is ready to use; Registry.Counter and CounterVec expose one. All
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

// family is the child set behind CounterVec and HistogramVec: one series
// per label value, kept in a copy-on-write slice behind an atomic
// pointer. The record path loads the pointer and indexes it — no locks,
// no allocation. Growth (slot) is the slow path: under a mutex it copies
// the slice, appends the new child and publishes the copy, so concurrent
// recorders only ever see fully-formed states. A series, once born,
// reports forever (Prometheus semantics: a removed backend's counters
// stop moving, they do not disappear).
type family[T any] struct {
	name, help, label string

	mu    sync.Mutex
	slots map[string]int
	kids  atomic.Pointer[[]child[T]]
}

type child[T any] struct {
	labels string // rendered label set; "" in an unlabelled family
	v      *T
}

func newFamily[T any](name, help, label string, values []string) *family[T] {
	f := &family[T]{name: name, help: help, label: label, slots: make(map[string]int)}
	f.kids.Store(&[]child[T]{})
	for _, val := range values {
		f.slot(val)
	}
	return f
}

// slot returns the index of value's series, creating it if absent.
// Indexes are stable for the family's lifetime: a value re-added later
// gets its original slot back. -1 on a nil family.
func (f *family[T]) slot(value string) int {
	if f == nil {
		return -1
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if i, ok := f.slots[value]; ok {
		return i
	}
	labels := ""
	if f.label != "" {
		labels = renderLabel(f.label, value)
	}
	old := *f.kids.Load()
	next := make([]child[T], len(old), len(old)+1)
	copy(next, old)
	next = append(next, child[T]{labels: labels, v: new(T)})
	f.slots[value] = len(old)
	f.kids.Store(&next)
	return len(old)
}

// at returns the series at slot i; nil (an inert instrument) when i is
// out of range or the family is nil.
func (f *family[T]) at(i int) *T {
	if f == nil || i < 0 {
		return nil
	}
	kids := *f.kids.Load()
	if i >= len(kids) {
		return nil
	}
	return kids[i].v
}

// CounterVec is a counter family keyed by one label. Series are addressed
// by slot index, so the record path indexes an array; out-of-range slots
// are dropped rather than panicking (a malformed class must not take down
// the record path). All methods are safe on a nil receiver.
type CounterVec family[Counter]

func (v *CounterVec) fam() *family[Counter] { return (*family[Counter])(v) }

// Slot returns the slot of value's series, creating it if absent (-1 on a
// nil receiver).
func (v *CounterVec) Slot(value string) int { return v.fam().slot(value) }

// Add adds n to the series at slot i.
func (v *CounterVec) Add(i int, n uint64) { v.fam().at(i).Add(n) }

// Inc adds one to the series at slot i.
func (v *CounterVec) Inc(i int) { v.Add(i, 1) }

// Value returns the current total of the series at slot i.
func (v *CounterVec) Value(i int) uint64 { return v.fam().at(i).Value() }

func (v *CounterVec) expose(w io.Writer) error {
	f := v.fam()
	if err := header(w, f.name, f.help, "counter"); err != nil {
		return err
	}
	for _, ch := range *f.kids.Load() {
		if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, ch.labels, ch.v.Value()); err != nil {
			return err
		}
	}
	return nil
}

// collector is one registered metric family, exposable in Prometheus
// text format.
type collector interface {
	expose(w io.Writer) error
}

// Registry holds registered metric families and renders them in
// registration order. Registration takes a lock; recording never does.
// A nil *Registry is inert: instruments built on it work but are never
// exposed, and WritePrometheus writes nothing.
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
	if r == nil {
		return
	}
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

// Counter registers and returns a new unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help, "", []string{""}).fam().at(0)
}

// CounterFunc registers a counter read from fn at scrape time, for a
// subsystem that already keeps its own lifetime counts under its own
// lock (the sfcache instances). fn must never decrease; like GaugeFunc's
// callback it runs on the scrape path only.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(name, &counterFuncFam{name: name, help: help, fn: fn})
}

// CounterVec registers a counter family keyed by label. values seeds the
// series set (may be empty); Slot grows it.
func (r *Registry) CounterVec(name, help, label string, values []string) *CounterVec {
	v := (*CounterVec)(newFamily[Counter](name, help, label, values))
	r.register(name, v)
	return v
}

// GaugeFunc registers a point-in-time gauge evaluated at scrape time.
// The callback runs on the scrape path only, so it may take locks (e.g.
// snapshotting pool occupancy under the pool mutex).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, &gaugeFam{name: name, help: help, fn: fn})
}

// LabelValue is one series of a dynamic gauge family: a label value and
// its current reading.
type LabelValue struct {
	Value string
	V     float64
}

// DynamicGaugeFunc registers a gauge family whose series set is computed
// fresh at every scrape: fn returns the (label value, reading) pairs to
// expose. It exists for state whose population changes at runtime (the
// routing tier's live fleet). The callback runs on the scrape path only,
// so it may take locks and allocate.
func (r *Registry) DynamicGaugeFunc(name, help, label string, fn func() []LabelValue) {
	r.register(name, &dynGaugeFam{name: name, help: help, label: label, fn: fn})
}

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
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

// header writes a family's HELP and TYPE lines.
func header(w io.Writer, name, help, typ string) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	return err
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

// counterFuncFam renders one callback counter.
type counterFuncFam struct {
	name, help string
	fn         func() uint64
}

func (f *counterFuncFam) expose(w io.Writer) error {
	if err := header(w, f.name, f.help, "counter"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", f.name, f.fn())
	return err
}

// gaugeFam renders one callback gauge.
type gaugeFam struct {
	name, help string
	fn         func() float64
}

func (f *gaugeFam) expose(w io.Writer) error {
	if err := header(w, f.name, f.help, "gauge"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %s\n", f.name, formatFloat(f.fn()))
	return err
}

// dynGaugeFam renders one dynamic gauge family.
type dynGaugeFam struct {
	name, help, label string
	fn                func() []LabelValue
}

func (f *dynGaugeFam) expose(w io.Writer) error {
	if err := header(w, f.name, f.help, "gauge"); err != nil {
		return err
	}
	for _, lv := range f.fn() {
		if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, renderLabel(f.label, lv.Value), formatFloat(lv.V)); err != nil {
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
