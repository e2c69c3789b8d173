package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterVecSlots(t *testing.T) {
	reg := NewRegistry()
	v := reg.CounterVec("grow_total", "help", "backend", []string{"a", "b"})
	if got := v.Slot("a"); got != 0 {
		t.Fatalf("Slot(a) = %d, want 0", got)
	}
	if got := v.Slot("b"); got != 1 {
		t.Fatalf("Slot(b) = %d, want 1", got)
	}
	c := v.Slot("c")
	if c != 2 {
		t.Fatalf("Slot(c) = %d, want 2", c)
	}
	// Re-asking for an existing value returns the original slot.
	if got := v.Slot("a"); got != 0 {
		t.Fatalf("Slot(a) after growth = %d, want 0", got)
	}
	v.Inc(0)
	v.Add(c, 5)
	if got := v.Value(0); got != 1 {
		t.Fatalf("Value(0) = %d, want 1", got)
	}
	if got := v.Value(c); got != 5 {
		t.Fatalf("Value(c) = %d, want 5", got)
	}
	// Out-of-range and negative indexes are dropped, not panics.
	v.Inc(99)
	v.Inc(-1)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		`grow_total{backend="a"} 1`,
		`grow_total{backend="b"} 0`,
		`grow_total{backend="c"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestCounterVecConcurrentGrowth(t *testing.T) {
	reg := NewRegistry()
	v := reg.CounterVec("grow_conc_total", "help", "backend", nil)
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Every worker records on a shared slot while half of them
			// also grow the vec: growth must never tear the record path.
			shared := v.Slot("shared")
			for i := 0; i < perWorker; i++ {
				v.Inc(shared)
				if w%2 == 0 && i%100 == 0 {
					v.Slot(string(rune('a' + w)))
				}
			}
		}(w)
	}
	wg.Wait()
	if got := v.Value(v.Slot("shared")); got != workers*perWorker {
		t.Fatalf("shared slot = %d, want %d", got, workers*perWorker)
	}
}

func TestHistogramVecSlots(t *testing.T) {
	reg := NewRegistry()
	v := reg.HistogramVec("grow_seconds", "help", "backend", []string{"a"})
	v.Observe(0, 2*time.Millisecond)
	b := v.Slot("b")
	v.Observe(b, 4*time.Millisecond)
	if got := v.Snapshot(0).Count; got != 1 {
		t.Fatalf("Snapshot(0).Count = %d, want 1", got)
	}
	if got := v.Snapshot(b).Count; got != 1 {
		t.Fatalf("Snapshot(b).Count = %d, want 1", got)
	}
	v.Observe(99, time.Millisecond) // dropped
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, `grow_seconds_count{backend="a"} 1`) {
		t.Errorf("exposition missing series a:\n%s", out)
	}
	if !strings.Contains(out, `grow_seconds_count{backend="b"} 1`) {
		t.Errorf("exposition missing series b:\n%s", out)
	}
}

// TestGrowableNilReceivers checks that a nil vec grows nothing: Slot
// hands out no slot and recording on the index it would have used is a
// no-op.
func TestGrowableNilReceivers(t *testing.T) {
	var c *CounterVec
	var h *HistogramVec
	if got := c.Slot("a"); got != -1 {
		t.Errorf("nil Slot = %d, want -1", got)
	}
	c.Inc(0)
	c.Add(1, 2)
	if got := c.Value(0); got != 0 {
		t.Errorf("nil Value = %d, want 0", got)
	}
	if got := h.Slot("a"); got != -1 {
		t.Errorf("nil hist Slot = %d, want -1", got)
	}
	h.Observe(0, time.Second)
	if got := h.Snapshot(0).Count; got != 0 {
		t.Errorf("nil Snapshot count = %d, want 0", got)
	}
}

// TestHistogramQuantile pins Quantile to the lower edge of the bucket
// holding the q-quantile observation, the contract the router's hedge
// delay relies on.
func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if got := h.Snapshot().Quantile(0.95); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond) // bucket (2^16, 2^17] ns
	}
	for i := 0; i < 10; i++ {
		h.Observe(5 * time.Millisecond) // bucket (2^22, 2^23] ns
	}
	s := h.Snapshot()
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0, 1 << 16},
		{0.5, 1 << 16},
		{0.89, 1 << 16},
		{0.9, 1 << 22},
		{0.95, 1 << 22},
	} {
		if got := s.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%g) = %v, want %v", tc.q, got, tc.want)
		}
	}
	h.Observe(time.Duration(1)<<37 + 1) // overflow
	if got := h.Snapshot().Quantile(0.999); got != 1<<37 {
		t.Errorf("overflow quantile = %v, want the last finite bound", got)
	}
	var low Histogram
	low.Observe(time.Microsecond) // bucket 0 has no lower edge
	if got := low.Snapshot().Quantile(0.5); got != 0 {
		t.Errorf("bucket-0 quantile = %v, want 0", got)
	}
}

func TestDynamicGaugeFunc(t *testing.T) {
	reg := NewRegistry()
	series := []LabelValue{{Value: "x", V: 1}}
	var mu sync.Mutex
	reg.DynamicGaugeFunc("dyn_up", "help", "backend", func() []LabelValue {
		mu.Lock()
		defer mu.Unlock()
		out := make([]LabelValue, len(series))
		copy(out, series)
		return out
	})
	var sb strings.Builder
	_ = reg.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), `dyn_up{backend="x"} 1`) {
		t.Fatalf("first scrape missing series x:\n%s", sb.String())
	}
	mu.Lock()
	series = []LabelValue{{Value: "y", V: 0}}
	mu.Unlock()
	sb.Reset()
	_ = reg.WritePrometheus(&sb)
	out := sb.String()
	if strings.Contains(out, `backend="x"`) {
		t.Errorf("second scrape still exposes removed series x:\n%s", out)
	}
	if !strings.Contains(out, `dyn_up{backend="y"} 0`) {
		t.Errorf("second scrape missing series y:\n%s", out)
	}
}
