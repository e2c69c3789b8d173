package telemetry

import (
	"fmt"
	"io"
	"math/bits"
	"time"
)

// Histogram bucket layout: fixed powers-of-two upper bounds in
// nanoseconds. Bucket i covers values up to 2^(histFirstExp+i) ns
// inclusive; one overflow bucket catches everything beyond the last
// finite bound. 28 finite buckets from 1.024 µs to ~137 s span every
// latency a served job can legally exhibit (the watchdog condemns
// anything slower).
const (
	histFirstExp = 10 // first finite upper bound: 2^10 ns = 1.024 µs
	histBuckets  = 28 // last finite upper bound: 2^37 ns ≈ 137 s
)

// Histogram is a log-bucketed latency histogram with a lock-free,
// allocation-free record path: one atomic add on the value's bucket and
// one on the sum cell, each on its own padded cache line. The zero value
// is ready to use (the router keeps a private one for its hedge delay);
// HistogramVec exposes them. All methods are safe on a nil receiver.
//
// Recording increments the bucket before any reader could derive the
// count, and Snapshot derives the count from the bucket totals, so a
// concurrent scrape always sees cumulative bucket counts that are
// self-consistent (the +Inf cumulative equals the reported count) and
// monotonic across scrapes.
type Histogram struct {
	buckets [histBuckets + 1]cell // [histBuckets] is the +Inf overflow
	sum     cell                  // total observed nanoseconds
}

// bucketFor maps a nanosecond value to its bucket index. Upper bounds
// are inclusive: bucketFor(1024) == 0, bucketFor(1025) == 1.
func bucketFor(ns uint64) int {
	if ns <= 1 {
		return 0
	}
	i := bits.Len64(ns-1) - histFirstExp
	if i < 0 {
		return 0
	}
	if i > histBuckets {
		return histBuckets
	}
	return i
}

// BucketBound returns bucket i's inclusive upper bound; the overflow
// bucket reports the maximum duration.
func BucketBound(i int) time.Duration {
	if i >= histBuckets {
		return time.Duration(1<<63 - 1)
	}
	return time.Duration(uint64(1) << (histFirstExp + i))
}

// NumBuckets is the number of histogram buckets including the overflow.
const NumBuckets = histBuckets + 1

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	ns := uint64(d)
	h.buckets[bucketFor(ns)].n.Add(1)
	h.sum.n.Add(ns)
}

// HistogramSnapshot is a point-in-time read of a histogram.
type HistogramSnapshot struct {
	// Buckets are per-bucket (non-cumulative) observation counts;
	// Buckets[NumBuckets-1] is the overflow bucket.
	Buckets [NumBuckets]uint64
	// Count is the total number of observations (the sum of Buckets).
	Count uint64
	// Sum is the total observed time in nanoseconds. Read after the
	// buckets, so it may lag Count by in-flight observations.
	Sum uint64
}

// Snapshot reads the histogram. Safe concurrently with Observe.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].n.Load()
		s.Count += s.Buckets[i]
	}
	s.Sum = h.sum.n.Load()
	return s
}

// Quantile returns the lower edge of the bucket holding the q-quantile
// observation — the previous bucket's upper bound, zero for bucket 0 and
// when empty: an estimate that never overstates the quantile and, below
// the overflow bucket, is at most 2x under it.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	target := uint64(float64(s.Count) * q)
	var cum uint64
	for i, n := range s.Buckets {
		if cum += n; cum > target {
			if i == 0 {
				return 0
			}
			return BucketBound(i - 1)
		}
	}
	return 0
}

// HistogramVec is a histogram family keyed by one label, with the same
// slot discipline as CounterVec: the record path indexes a copy-on-write
// slice, Slot grows it, out-of-range slots are dropped. All methods are
// safe on a nil receiver.
type HistogramVec family[Histogram]

func (v *HistogramVec) fam() *family[Histogram] { return (*family[Histogram])(v) }

// Slot returns the slot of value's series, creating it if absent (-1 on a
// nil receiver).
func (v *HistogramVec) Slot(value string) int { return v.fam().slot(value) }

// Observe records d on the series at slot i.
func (v *HistogramVec) Observe(i int, d time.Duration) { v.fam().at(i).Observe(d) }

// Snapshot reads the series at slot i.
func (v *HistogramVec) Snapshot(i int) HistogramSnapshot { return v.fam().at(i).Snapshot() }

// HistogramVec registers a histogram family keyed by label. values seeds
// the series set (may be empty); Slot grows it. Latencies are exposed in
// seconds, per Prometheus convention; bucket bounds are the power-of-two
// nanosecond bounds converted.
func (r *Registry) HistogramVec(name, help, label string, values []string) *HistogramVec {
	v := (*HistogramVec)(newFamily[Histogram](name, help, label, values))
	r.register(name, v)
	return v
}

func (v *HistogramVec) expose(w io.Writer) error {
	f := v.fam()
	if err := header(w, f.name, f.help, "histogram"); err != nil {
		return err
	}
	for _, ch := range *f.kids.Load() {
		if err := exposeChild(w, f.name, ch.labels, ch.v.Snapshot()); err != nil {
			return err
		}
	}
	return nil
}

// exposeChild writes one histogram series: cumulative buckets, +Inf, sum
// (in seconds), and count.
func exposeChild(w io.Writer, name, labels string, s HistogramSnapshot) error {
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += s.Buckets[i]
		le := float64(uint64(1)<<(histFirstExp+i)) / 1e9
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(labels, formatFloat(le)), cum); err != nil {
			return err
		}
	}
	cum += s.Buckets[histBuckets]
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(labels, "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(float64(s.Sum)/1e9)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, cum)
	return err
}

// bucketLabels merges the child's label set with the le label.
func bucketLabels(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}
