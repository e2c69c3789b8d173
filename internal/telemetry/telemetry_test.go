package telemetry

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "help")
	if c.Value() != 0 {
		t.Fatalf("fresh counter = %d", c.Value())
	}
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
}

func TestNilReceiversAreInert(t *testing.T) {
	var c *Counter
	var h *Histogram
	var cv *CounterVec
	var hv *HistogramVec
	c.Add(1)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	h.Observe(time.Second)
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatal("nil histogram has observations")
	}
	cv.Add(0, 1)
	cv.Inc(3)
	if cv.Value(0) != 0 {
		t.Fatal("nil counter vec has a value")
	}
	hv.Observe(0, time.Second)
	if s := hv.Snapshot(0); s.Count != 0 {
		t.Fatal("nil histogram vec has observations")
	}

	// A nil registry registers nothing and exposes nothing; instruments
	// built on it still work.
	var r *Registry
	rc := r.Counter("nil_total", "help")
	rc.Inc()
	if rc.Value() != 1 {
		t.Fatalf("counter on a nil registry = %d, want 1", rc.Value())
	}
	r.HistogramVec("nil_seconds", "help", "k", []string{"a"}).Observe(0, time.Second)
	r.GaugeFunc("nil_gauge", "help", func() float64 { return 1 })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry exposed %q (err %v)", buf.String(), err)
	}
}

func TestVecOutOfRangeDropped(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("vec_total", "help", "k", []string{"a", "b"})
	cv.Inc(-1)
	cv.Inc(2)
	cv.Inc(1)
	if cv.Value(0) != 0 || cv.Value(1) != 1 {
		t.Fatalf("vec = %d/%d, want 0/1", cv.Value(0), cv.Value(1))
	}
	hv := r.HistogramVec("vec_seconds", "help", "k", []string{"a"})
	hv.Observe(7, time.Second)
	if s := hv.Snapshot(0); s.Count != 0 {
		t.Fatalf("out-of-range observe landed: %+v", s)
	}
}

// TestHistogramBucketBoundaries pins the bucket map at the powers-of-two
// edges: an upper bound is inclusive, one past it rolls to the next
// bucket, and everything past the last finite bound lands in overflow.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		ns     uint64
		bucket int
	}{
		{0, 0},
		{1, 0},
		{1023, 0},
		{1024, 0}, // 2^10: inclusive upper bound of bucket 0
		{1025, 1}, // one past the bound rolls over
		{2048, 1}, // 2^11
		{2049, 2},
		{1 << 20, 10}, // 2^20 = bound of bucket 10
		{1<<20 + 1, 11},
		{1 << 37, histBuckets - 1}, // last finite bound, inclusive
		{1<<37 + 1, histBuckets},   // overflow
		{^uint64(0) >> 1, histBuckets},
	}
	for _, tc := range cases {
		if got := bucketFor(tc.ns); got != tc.bucket {
			t.Errorf("bucketFor(%d) = %d, want %d", tc.ns, got, tc.bucket)
		}
	}

	// Observe at each boundary and check the snapshot places them.
	var h Histogram
	h.Observe(1024 * time.Nanosecond)
	h.Observe(1025 * time.Nanosecond)
	h.Observe(time.Duration(1)<<37 + 1) // overflow
	h.Observe(-time.Second)             // clamps to zero → bucket 0
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	if s.Buckets[0] != 2 || s.Buckets[1] != 1 || s.Buckets[histBuckets] != 1 {
		t.Fatalf("bucket placement: %v", s.Buckets)
	}
	wantSum := uint64(1024 + 1025 + (1<<37 + 1))
	if s.Sum != wantSum {
		t.Fatalf("sum = %d, want %d", s.Sum, wantSum)
	}
}

func TestBucketBoundMatchesBucketFor(t *testing.T) {
	for i := 0; i < histBuckets; i++ {
		b := uint64(BucketBound(i))
		if got := bucketFor(b); got != i {
			t.Errorf("bound of bucket %d maps to bucket %d", i, got)
		}
		if got := bucketFor(b + 1); got != i+1 {
			t.Errorf("bound+1 of bucket %d maps to bucket %d, want %d", i, got, i+1)
		}
	}
}

// TestConcurrentRecordersAndScrapes is the package's -race gate: parallel
// recorders hammer a counter, a counter vec, and a histogram while
// concurrent scrapers take snapshots and renders; every snapshot must be
// self-consistent (histogram count equals its bucket total, by
// construction) and monotonic with respect to the previous one.
func TestConcurrentRecordersAndScrapes(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "help")
	cv := r.CounterVec("conc_class_total", "help", "class", []string{"a", "b", "c"})
	h := r.HistogramVec("conc_seconds", "help", "k", []string{"a"}).fam().at(0)
	r.GaugeFunc("conc_gauge", "help", func() float64 { return float64(c.Value()) })

	const (
		recorders = 8
		perG      = 2000
	)
	var wg sync.WaitGroup
	for g := 0; g < recorders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
				cv.Inc(i % 3)
				h.Observe(time.Duration(i%1000) * time.Microsecond)
			}
		}(g)
	}

	stop := make(chan struct{})
	scrapeErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastCount, lastCounter uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			var bucketTotal uint64
			for _, b := range s.Buckets {
				bucketTotal += b
			}
			if bucketTotal != s.Count {
				scrapeErr <- fmt.Errorf("snapshot count %d != bucket total %d", s.Count, bucketTotal)
				return
			}
			if s.Count < lastCount {
				scrapeErr <- fmt.Errorf("histogram count went backwards: %d < %d", s.Count, lastCount)
				return
			}
			lastCount = s.Count
			v := c.Value()
			if v < lastCounter {
				scrapeErr <- fmt.Errorf("counter went backwards: %d < %d", v, lastCounter)
				return
			}
			lastCounter = v
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				scrapeErr <- err
				return
			}
		}
	}()

	// Recorders and scraper all share wg; stop the scraper once the
	// counter shows every recorder finished.
	waitTotal := uint64(recorders * perG)
	for c.Value() < waitTotal {
		select {
		case err := <-scrapeErr:
			t.Fatal(err)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-scrapeErr:
		t.Fatal(err)
	default:
	}

	if c.Value() != waitTotal {
		t.Fatalf("counter = %d, want %d", c.Value(), waitTotal)
	}
	var vecTotal uint64
	for i := 0; i < 3; i++ {
		vecTotal += cv.Value(i)
	}
	if vecTotal != waitTotal {
		t.Fatalf("vec total = %d, want %d", vecTotal, waitTotal)
	}
	if s := h.Snapshot(); s.Count != waitTotal {
		t.Fatalf("histogram count = %d, want %d", s.Count, waitTotal)
	}
}

// TestExpositionFormat checks the rendered text: HELP/TYPE headers,
// counter and gauge lines, cumulative histogram buckets ending at +Inf,
// and label escaping.
func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "Total jobs.")
	c.Add(7)
	cv := r.CounterVec("class_total", "Per class.", "class", []string{`we"ird`, "ok"})
	cv.Add(1, 3)
	r.GaugeFunc("workers", "Live workers.", func() float64 { return 4 })
	r.CounterFunc("cache_hits_total", "Cache hits.", func() uint64 { return 9 })
	h := r.HistogramVec("lat_seconds", "Latency.", "k", []string{"a"})
	h.Observe(0, 1024*time.Nanosecond) // bucket 0
	h.Observe(0, 3*time.Microsecond)   // bucket 2 (bound 4.096 µs)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, want := range []string{
		"# HELP jobs_total Total jobs.\n# TYPE jobs_total counter\njobs_total 7\n",
		`class_total{class="we\"ird"} 0`,
		`class_total{class="ok"} 3`,
		"# TYPE workers gauge\nworkers 4\n",
		"# HELP cache_hits_total Cache hits.\n# TYPE cache_hits_total counter\ncache_hits_total 9\n",
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{k="a",le="1.024e-06"} 1`,
		`lat_seconds_bucket{k="a",le="4.096e-06"} 2`,
		`lat_seconds_bucket{k="a",le="+Inf"} 2`,
		"lat_seconds_count{k=\"a\"} 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}

	// Buckets must be cumulative and non-decreasing.
	var last uint64
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "lat_seconds_bucket") {
			continue
		}
		var v uint64
		if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &v); err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("bucket counts not cumulative: %q after %d", line, last)
		}
		last = v
	}
}

func TestRegistryRejectsBadAndDuplicateNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("ok_name", "h")
	for _, bad := range []string{"", "9lead", "sp ace", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q accepted", bad)
				}
			}()
			r.Counter(bad, "h")
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate name accepted")
			}
		}()
		r.Counter("ok_name", "h")
	}()
}
