package route

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// aggregate.go merges the backends' Prometheus text expositions into one
// fleet-wide scrape: series with identical name+labels are summed across
// backends (counters and histogram buckets sum exactly; pool-occupancy
// gauges sum into fleet totals), comment lines are deduplicated, and the
// router's own pyroute_ families are prepended. The router stays a thin
// front: it does not need to know any backend metric by name.

// promAggregator accumulates parsed exposition lines in first-seen order.
type promAggregator struct {
	order  []promEntry
	series map[string]int // series key -> index into order
	seen   map[string]bool
	// scraped/failed count backends contacted for the trailer comment.
	scraped, failed int
}

type promEntry struct {
	comment string  // non-empty for # lines
	key     string  // series name+labels
	value   float64 // summed value
}

func newPromAggregator() *promAggregator {
	return &promAggregator{series: make(map[string]int), seen: make(map[string]bool)}
}

// consume parses one backend's exposition and folds it in. Malformed
// lines are skipped — a half-written backend scrape must not break the
// fleet scrape.
func (a *promAggregator) consume(r io.Reader) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := strings.TrimRight(sc.Text(), " \t")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !a.seen[line] {
				a.seen[line] = true
				a.order = append(a.order, promEntry{comment: line})
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			continue
		}
		key, raw := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			continue
		}
		if i, ok := a.series[key]; ok {
			a.order[i].value += v
		} else {
			a.series[key] = len(a.order)
			a.order = append(a.order, promEntry{key: key, value: v})
		}
	}
}

func (a *promAggregator) write(w io.Writer) {
	buf := bufio.NewWriter(w)
	for _, e := range a.order {
		if e.comment != "" {
			buf.WriteString(e.comment)
			buf.WriteByte('\n')
			continue
		}
		buf.WriteString(e.key)
		buf.WriteByte(' ')
		buf.WriteString(strconv.FormatFloat(e.value, 'g', -1, 64))
		buf.WriteByte('\n')
	}
	buf.Flush()
}

// handleMetrics serves the fleet-wide scrape: the router's own families
// first, then the summed backend families. Backend fetches run
// concurrently, each under its own MetricsTimeout deadline, so one
// stalled replica delays the scrape by at most one timeout instead of
// holding the whole fleet scrape hostage; backends that fail to answer
// are skipped and counted in a trailer comment. Results are folded in
// fleet order so the output is deterministic regardless of which fetch
// finished first.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	backends := rt.fleet.Load().backends
	bodies := make([][]byte, len(backends)) // nil = fetch failed
	var wg sync.WaitGroup
	for i, b := range backends {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.MetricsTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/v1/metrics", nil)
			if err != nil {
				return
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(io.LimitReader(resp.Body, maxUpstreamBody))
			if err != nil || resp.StatusCode != http.StatusOK {
				return
			}
			bodies[i] = body
		}(i, b)
	}
	wg.Wait()

	agg := newPromAggregator()
	for _, body := range bodies {
		if body == nil {
			agg.failed++
			continue
		}
		agg.scraped++
		agg.consume(bytes.NewReader(body))
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = rt.metrics.reg.WritePrometheus(w)
	agg.write(w)
	_, _ = io.WriteString(w, "# pyroute: aggregated "+strconv.Itoa(agg.scraped)+
		" backends, "+strconv.Itoa(agg.failed)+" unreachable\n")
}
