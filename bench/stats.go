package main

import (
	"math"
	"sort"
	"strings"
)

// percentile returns the p-th percentile (0 < p < 100) of sorted by the
// nearest-rank rule: the smallest value with at least p% of the samples
// at or below it. Zero for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n) / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// samplesBeyond is how many samples lie strictly above the p-th
// percentile's rank.
func samplesBeyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)/100))
}

// tailPercentiles are the candidates for the reported tail, highest
// first; 50 is the floor, where the tail degenerates to the median.
var tailPercentiles = []float64{99, 98, 95, 90, 75, 50}

// tailPercentile picks the percentile a tail latency is reported at: want
// if the sample supports it, else the highest candidate below want that
// does. A percentile is supported when at least ten samples lie beyond
// it; p99 additionally needs 1,000 samples.
func tailPercentile(n int, want float64) float64 {
	for _, p := range tailPercentiles {
		if p > want {
			continue
		}
		if p == 99 && n < 1000 {
			continue
		}
		if samplesBeyond(n, p) >= 10 {
			return p
		}
	}
	return 50
}

func median(sorted []float64) float64 { return percentile(sorted, 50) }

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// geomean of positive values; zero when empty.
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}

// baseID strips the router's per-attempt suffix (".r2", ".h2") from a
// request id. Client ids contain no dot.
func baseID(id string) string {
	if i := strings.IndexByte(id, '.'); i >= 0 {
		return id[:i]
	}
	return id
}

// interval is a half-open span of trace time.
type interval struct{ start, end int64 }

// covered is how much of parent its children cover: the length of the
// union of the children, each clipped to parent. Overlapping children
// (a hedge racing its primary) are counted once.
func covered(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, reach int64
	reach = parent.start
	for _, c := range clipped {
		if c.start > reach {
			reach = c.start
		}
		if c.end > reach {
			total += c.end - reach
			reach = c.end
		}
	}
	return total
}

// LayerTimes attributes one request's client-observed round trip to the
// layers, in nanoseconds. A layer's self time is its span minus the part
// its child spans cover; the parts sum to Total up to Unattributed.
type LayerTimes struct {
	Total int64
	// Self times.
	Client, Route, Serve, Supervise int64
	// What the backend reported inside Submit.
	QueueWait, Run int64
	// Unattributed is |Total − sum of the parts|: non-zero when a span is
	// missing, a child pokes out of its parent, or the backend's own
	// figures exceed the Submit span that contains them.
	Unattributed int64
	// ParkedUnknown marks a scheduled job whose lifecycle trace was
	// capped: its wait is taken as Submit − Run and its supervise self
	// time as zero.
	ParkedUnknown bool
}

// selfTimes builds one request's attribution from its spans (all spans
// sharing one Req). The tree is client → [route →] serve attempt(s) →
// submit; a request the router retried or hedged has several serve
// spans (ids Req, Req.r2, Req.h2 …), all children of the route span.
// ok is false when the request has no client span.
func selfTimes(spans []Span) (lt LayerTimes, ok bool) {
	var client, routeSp *Span
	var serves, submits []*Span
	for i := range spans {
		s := &spans[i]
		switch s.Layer {
		case layerClient:
			client = s
		case layerRoute:
			routeSp = s
		case layerServe:
			serves = append(serves, s)
		case layerSubmit:
			submits = append(submits, s)
		}
	}
	if client == nil {
		return lt, false
	}
	iv := func(s *Span) interval { return interval{s.Start, s.End} }
	ivs := func(ss []*Span) []interval {
		out := make([]interval, len(ss))
		for i, s := range ss {
			out[i] = iv(s)
		}
		return out
	}
	lt.Total = client.End - client.Start

	// The outermost handler: the router when there is one, else serve.
	outer := ivs(serves)
	if routeSp != nil {
		outer = []interval{iv(routeSp)}
		lt.Route = (routeSp.End - routeSp.Start) - covered(iv(routeSp), ivs(serves))
	}
	lt.Client = lt.Total - covered(iv(client), outer)

	// Each submit belongs to the serve attempt whose interval contains it.
	for _, sv := range serves {
		var mine []interval
		for _, sb := range submits {
			if sb.Start >= sv.Start && sb.End <= sv.End {
				mine = append(mine, iv(sb))
			}
		}
		lt.Serve += (sv.End - sv.Start) - covered(iv(sv), mine)
	}
	for _, sb := range submits {
		dur := sb.End - sb.Start
		wait := sb.Queued + sb.Parked
		if sb.Parked < 0 {
			lt.ParkedUnknown = true
			wait = dur - sb.Run
		}
		self := dur - wait - sb.Run
		if self < 0 {
			self = 0
		}
		lt.Supervise += self
		lt.QueueWait += wait
		lt.Run += sb.Run
	}
	parts := lt.Client + lt.Route + lt.Serve + lt.Supervise + lt.QueueWait + lt.Run
	lt.Unattributed = lt.Total - parts
	if lt.Unattributed < 0 {
		lt.Unattributed = -lt.Unattributed
	}
	return lt, true
}

// openLoopTimes gives an open-loop request's latency and the generator's
// lateness, in nanoseconds. The request was due at due, actually sent at
// sent and answered at done: latency counts from the due time, so a stall
// charges every request scheduled during it, and lateness is how far
// behind its schedule the generator ran.
func openLoopTimes(due, sent, done int64) (latency, lateness int64) {
	lateness = sent - due
	if lateness < 0 {
		lateness = 0
	}
	return done - due, lateness
}
