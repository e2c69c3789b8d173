package main

import (
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1) // 1..100
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {1, 1}} {
		if got := percentile(v, tc.p); got != tc.want {
			t.Errorf("p%g of 1..100 = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %g, want 7", got)
	}
}

// The tail is reported at the highest percentile with at least ten
// samples beyond it; p99 also needs 1,000 samples.
func TestTailPercentileChoice(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		tail float64
	}{
		{n: 20000, want: 99, tail: 99},
		{n: 1000, want: 99, tail: 99}, // exactly 10 beyond p99
		{n: 999, want: 99, tail: 98},  // under 1,000: no p99, 19 beyond p98
		{n: 500, want: 99, tail: 98},  // 10 beyond p98
		{n: 499, want: 99, tail: 95},  // 9 beyond p98, 24 beyond p95
		{n: 200, want: 99, tail: 95},  // exactly 10 beyond p95
		{n: 199, want: 99, tail: 90},
		{n: 100, want: 99, tail: 90},
		{n: 40, want: 99, tail: 75},
		{n: 12, want: 99, tail: 50},
		{n: 20000, want: 95, tail: 95}, // a workload never reports above its stated tail
		{n: 150, want: 95, tail: 90},
	} {
		if got := tailPercentile(tc.n, tc.want); got != tc.tail {
			t.Errorf("tailPercentile(%d, %g) = p%g, want p%g", tc.n, tc.want, got, tc.tail)
		}
		if tc.tail > 50 && samplesBeyond(tc.n, tc.tail) < 10 {
			t.Errorf("n=%d: only %d samples beyond p%g", tc.n, samplesBeyond(tc.n, tc.tail), tc.tail)
		}
	}
}

func TestBaseID(t *testing.T) {
	for id, want := range map[string]string{"t0-17": "t0-17", "t0-17.r2": "t0-17", "t1-3.h2": "t1-3", "": ""} {
		if got := baseID(id); got != want {
			t.Errorf("baseID(%q) = %q, want %q", id, got, want)
		}
	}
}

func TestCoveredUnionsAndClips(t *testing.T) {
	parent := interval{100, 200}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"none", nil, 0},
		{"one inside", []interval{{110, 150}}, 40},
		{"two disjoint", []interval{{110, 120}, {150, 170}}, 30},
		{"overlapping count once", []interval{{110, 160}, {140, 180}}, 70},
		{"nested", []interval{{110, 190}, {120, 130}}, 80},
		{"clipped to parent", []interval{{50, 120}, {190, 260}}, 30},
		{"outside", []interval{{0, 50}, {300, 400}}, 0},
		{"unsorted", []interval{{150, 170}, {110, 120}}, 30},
	} {
		if got := covered(parent, tc.children); got != tc.want {
			t.Errorf("%s: covered = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// A direct request: client → serve → submit. Every nanosecond lands in
// exactly one layer.
func TestSelfTimesDirect(t *testing.T) {
	lt, ok := selfTimes([]Span{
		{Req: "a", ID: "a", Layer: layerClient, Start: 0, End: 1000},
		{Req: "a", ID: "a", Layer: layerServe, Start: 100, End: 900},
		{Req: "a", ID: "a", Layer: layerSubmit, Start: 150, End: 850, Queued: 50, Run: 600},
	})
	if !ok {
		t.Fatal("no attribution")
	}
	want := LayerTimes{Total: 1000, Client: 200, Serve: 100, Supervise: 50, QueueWait: 50, Run: 600}
	if lt != want {
		t.Errorf("got %+v, want %+v", lt, want)
	}
}

// A routed request the router retried: the first attempt was shed before
// it reached a worker (a serve span with no submit), the second (.r2)
// ran. Both attempts are children of the route span; the gap between
// them (backoff) is the router's own time.
func TestSelfTimesRoutedRetry(t *testing.T) {
	lt, ok := selfTimes([]Span{
		{Req: "a", ID: "a", Layer: layerClient, Start: 0, End: 2000},
		{Req: "a", ID: "a", Layer: layerRoute, Start: 100, End: 1900},
		{Req: "a", ID: "a", Layer: layerServe, Start: 200, End: 300},
		{Req: "a", ID: "a.r2", Layer: layerServe, Start: 500, End: 1800},
		{Req: "a", ID: "a", Layer: layerSubmit, Start: 600, End: 1700, Queued: 100, Run: 900},
	})
	if !ok {
		t.Fatal("no attribution")
	}
	want := LayerTimes{
		Total:     2000,
		Client:    200,                 // 2000 − route's 1800
		Route:     1800 - 100 - 1300,   // its span minus both attempts
		Serve:     100 + (1300 - 1100), // the shed attempt whole, the second minus its submit
		Supervise: 1100 - 100 - 900,    // submit − queued − run
		QueueWait: 100, Run: 900,
	}
	if lt != want {
		t.Errorf("got %+v, want %+v", lt, want)
	}
	if sum := lt.Client + lt.Route + lt.Serve + lt.Supervise + lt.QueueWait + lt.Run; sum != lt.Total {
		t.Errorf("parts sum to %d, whole is %d", sum, lt.Total)
	}
}

// A hedged request: the hedge (.h2) overlaps the primary. The route span
// is charged only for time no attempt covers; both attempts' work is
// counted, so the parts exceed the whole by the overlap and the excess
// is reported as unattributed rather than hidden.
func TestSelfTimesHedgeOverlap(t *testing.T) {
	lt, ok := selfTimes([]Span{
		{Req: "a", ID: "a", Layer: layerClient, Start: 0, End: 1000},
		{Req: "a", ID: "a", Layer: layerRoute, Start: 50, End: 950},
		{Req: "a", ID: "a", Layer: layerServe, Start: 100, End: 900},
		{Req: "a", ID: "a.h2", Layer: layerServe, Start: 500, End: 800},
	})
	if !ok {
		t.Fatal("no attribution")
	}
	if lt.Route != 900-800 {
		t.Errorf("route self = %d, want 100 (union of attempts covers 800)", lt.Route)
	}
	if lt.Serve != 800+300 {
		t.Errorf("serve self = %d, want 1100 (both attempts)", lt.Serve)
	}
	if lt.Unattributed != 300 {
		t.Errorf("unattributed = %d, want the 300 ns overlap", lt.Unattributed)
	}
}

func TestSelfTimesSchedParkedAndMissing(t *testing.T) {
	// Preempted job: parked time is waiting, not supervise self time.
	lt, _ := selfTimes([]Span{
		{Req: "a", ID: "a", Layer: layerClient, Start: 0, End: 1000},
		{Req: "a", ID: "a", Layer: layerServe, Start: 0, End: 1000},
		{Req: "a", ID: "a", Layer: layerSubmit, Start: 0, End: 1000, Queued: 100, Run: 500, Parked: 300},
	})
	if lt.QueueWait != 400 || lt.Supervise != 100 || lt.Unattributed != 0 {
		t.Errorf("parked: got %+v", lt)
	}
	// Capped lifecycle: wait is what is left of the span, self time zero.
	lt, _ = selfTimes([]Span{
		{Req: "a", ID: "a", Layer: layerClient, Start: 0, End: 1000},
		{Req: "a", ID: "a", Layer: layerServe, Start: 0, End: 1000},
		{Req: "a", ID: "a", Layer: layerSubmit, Start: 0, End: 1000, Queued: 100, Run: 500, Parked: -1},
	})
	if !lt.ParkedUnknown || lt.QueueWait != 500 || lt.Supervise != 0 || lt.Unattributed != 0 {
		t.Errorf("capped: got %+v", lt)
	}
	// A backend that reports more than its span holds shows as
	// unattributed, not as negative self time.
	lt, _ = selfTimes([]Span{
		{Req: "a", ID: "a", Layer: layerClient, Start: 0, End: 1000},
		{Req: "a", ID: "a", Layer: layerServe, Start: 0, End: 1000},
		{Req: "a", ID: "a", Layer: layerSubmit, Start: 0, End: 1000, Queued: 300, Run: 900},
	})
	if lt.Supervise != 0 || lt.Unattributed != 200 {
		t.Errorf("over-reported: got %+v", lt)
	}
	// No client span: nothing to attribute to.
	if _, ok := selfTimes([]Span{{Req: "a", ID: "a", Layer: layerServe, Start: 0, End: 10}}); ok {
		t.Error("attribution without a client span")
	}
}

// Open-loop latency counts from the due time; lateness is the
// generator's own delay and never negative.
func TestOpenLoopTimes(t *testing.T) {
	for _, tc := range []struct {
		due, sent, done int64
		lat, late       int64
	}{
		{due: 1000, sent: 1000, done: 1500, lat: 500, late: 0},
		{due: 1000, sent: 1400, done: 1900, lat: 900, late: 400}, // a stall charges the request
		{due: 1000, sent: 990, done: 1200, lat: 200, late: 0},    // early wake-up is not lateness
	} {
		lat, late := openLoopTimes(tc.due, tc.sent, tc.done)
		if lat != tc.lat || late != tc.late {
			t.Errorf("openLoopTimes(%d,%d,%d) = %d,%d want %d,%d", tc.due, tc.sent, tc.done, lat, late, tc.lat, tc.late)
		}
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{1, 4, 16}); g < 3.999 || g > 4.001 {
		t.Errorf("geomean(1,4,16) = %g, want 4", g)
	}
	if g := geomean(nil); g != 0 {
		t.Errorf("geomean of nothing = %g", g)
	}
}
