package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/api"
)

// The client layer: the benchmark's own load generator, the role
// internal/load plays for cmd/pyload. It builds each request, times the
// round trip and checks the answer against the pinned expectation.

// Request is one /v1/run call and what a correct answer looks like.
type Request struct {
	// Prog supplies the program (by Ref when ByRef, else inline Src), the
	// expected stdout and the step count credited to goodput.
	Prog      *Program
	ByRef     bool
	Breakdown bool
	Lane      int
	// IdemKey, when set, is sent as idempotencyKey together with an
	// X-Content-Digest; Replay marks a re-send of an already answered key,
	// which must come back deduped.
	IdemKey string
	Replay  bool
}

// body renders the request JSON. The request id doubles as the name
// field so the Backend.Submit decorator can key its span (layers.go);
// it is sent in traced and untraced runs alike so both send equal bytes.
func (rq *Request) body(id string) []byte {
	b := make([]byte, 0, 256+len(rq.Prog.Src))
	b = append(b, `{"name":"`...)
	b = append(b, id...)
	if rq.ByRef {
		b = append(b, `","programRef":"`...)
		b = append(b, rq.Prog.Ref...)
		b = append(b, '"')
	} else {
		b = append(b, `","src":`...)
		src, _ := json.Marshal(rq.Prog.Src) // a string always marshals
		b = append(b, src...)
	}
	if rq.Breakdown {
		b = append(b, `,"breakdown":true`...)
	}
	if rq.IdemKey != "" {
		b = append(b, `,"idempotencyKey":"`...)
		b = append(b, rq.IdemKey...)
		b = append(b, '"')
	}
	if rq.Lane != 0 {
		b = append(b, `,"lane":`...)
		b = strconv.AppendInt(b, int64(rq.Lane), 10)
	}
	return append(b, '}')
}

// Outcome classes: every request lands in exactly one.
const (
	outOK             = "ok"
	outTransport      = "transport_error"
	outStatus         = "http_status"
	outExitClass      = "wrong_exit_class"
	outStdout         = "wrong_stdout"
	outDoubleExec     = "double_execution"
	outReplayNotDedup = "replay_not_deduped"
)

// Answer is what the client learned from one round trip.
type Answer struct {
	Outcome string
	// Start and End are trace-clock nanoseconds of send and receipt.
	Start, End int64
	Result     api.RunResultV1
	Attempts   int    // X-Pyroute-Attempts (0 when not routed)
	Backend    string // X-Pyroute-Backend
}

// do sends one request and classifies the answer.
func do(top *Topology, clock func() int64, id string, rq *Request) Answer {
	body := rq.body(id)
	ans := Answer{Outcome: outTransport}
	hreq, err := http.NewRequest(http.MethodPost, top.URL+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return ans
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(api.HeaderRequestID, id)
	if rq.IdemKey != "" {
		hreq.Header.Set(api.HeaderContentDigest, api.Digest(body))
	}
	ans.Start = clock()
	resp, err := top.client.Do(hreq)
	if err != nil {
		ans.End = clock()
		return ans
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ans.End = clock()
	if err != nil {
		return ans
	}
	ans.Attempts, _ = strconv.Atoi(resp.Header.Get("X-Pyroute-Attempts"))
	ans.Backend = resp.Header.Get("X-Pyroute-Backend")
	switch {
	case resp.StatusCode != http.StatusOK:
		ans.Outcome = outStatus
	case json.Unmarshal(data, &ans.Result) != nil:
		ans.Outcome = outTransport
	case ans.Result.ExitClass != "ok":
		ans.Outcome = outExitClass
	case ans.Result.Stdout != rq.Prog.Want:
		ans.Outcome = outStdout
	case ans.Result.Executions > 1:
		ans.Outcome = outDoubleExec
	case rq.Replay && !ans.Result.Deduped:
		ans.Outcome = outReplayNotDedup
	default:
		ans.Outcome = outOK
	}
	return ans
}

// Stream is one connection's request sequence. next returns the i-th
// request; every choice in it derives from the run's seed.
type Stream interface {
	next(i int) *Request
	// done is told the answer to the i-th request (the routed stream
	// remembers answered keys to replay).
	done(i int, rq *Request, ans *Answer)
	// distinct is how many requests from the start cover every program
	// the stream draws from once.
	distinct() int
}

// Tally accumulates one connection's answers.
type Tally struct {
	// LatMs are the latencies of correct answers.
	LatMs []float64
	// LateMs are open-loop generator latenesses (empty on closed loops).
	LateMs    []float64
	Outcomes  map[string]int
	Attempted int
	// Steps is the pinned bytecode count of every correct answer.
	Steps uint64
	// first and last bound the connection's activity on the trace clock.
	first, last int64

	// Sums over correct answers of what the responses reported.
	ICHits, ICMisses      uint64
	MinorGCs, MajorGCs    uint64
	Preemptions, Attempts int
	// Seeded counts answers run from a warm-started program; Executed the
	// ones that ran at all (a deduped replay did not).
	Seeded, Executed int
	PerBackend       map[string]int
	// Sample is the first correct answer, for the encode probe.
	Sample *api.RunResultV1
}

func newTally() *Tally {
	return &Tally{Outcomes: map[string]int{}, PerBackend: map[string]int{}, first: -1}
}

// add records one answer. at is when the request was sent, or was due on
// an open loop: latency counts from it.
func (t *Tally) add(rq *Request, ans *Answer, at int64) {
	t.Attempted++
	t.Outcomes[ans.Outcome]++
	if t.first < 0 || ans.Start < t.first {
		t.first = ans.Start
	}
	if ans.End > t.last {
		t.last = ans.End
	}
	if ans.Outcome != outOK {
		return
	}
	lat, _ := openLoopTimes(at, ans.Start, ans.End)
	t.LatMs = append(t.LatMs, float64(lat)/1e6)
	t.Steps += rq.Prog.Steps
	r := &ans.Result
	if t.Sample == nil {
		t.Sample = r
	}
	if r.Stats != nil {
		t.ICHits += r.Stats.ICHits
		t.ICMisses += r.Stats.ICMisses
		t.MinorGCs += r.Stats.MinorGCs
		t.MajorGCs += r.Stats.MajorGCs
	}
	t.Preemptions += r.Preemptions
	t.Attempts += ans.Attempts
	if r.ProgramCache == api.ProgramCacheSeeded {
		t.Seeded++
	}
	if !r.Deduped {
		t.Executed++
	}
	if ans.Backend != "" {
		t.PerBackend[ans.Backend]++
	}
}

// Failed counts answers outside the ok class.
func (t *Tally) Failed() int { return t.Attempted - t.Outcomes[outOK] }

// elapsed is the connection's active time in seconds: first send to last
// receipt. Rates are taken per connection over its own active time, so a
// long job straddling the end of the run is neither lost nor rounded.
func (t *Tally) elapsed() float64 {
	if t.first < 0 || t.last <= t.first {
		return 0
	}
	return float64(t.last-t.first) / 1e9
}

// Driver sends requests through one topology. With a trace it marks
// every sampleEvery-th request of each connection as sampled and records
// its client span; the decorators record the same requests' spans.
type Driver struct {
	top   *Topology
	clock func() int64
	// prefix makes request ids unique across phases of one process.
	prefix      string
	trace       *Trace
	sampleEvery int
}

// newDriver builds an untraced driver.
func newDriver(top *Topology, prefix string) *Driver {
	epoch := time.Now()
	return &Driver{top: top, prefix: prefix, clock: func() int64 { return int64(time.Since(epoch)) }}
}

// newTracedDriver builds a driver that samples one request in every.
func newTracedDriver(top *Topology, tr *Trace, every int) *Driver {
	return &Driver{top: top, prefix: "n", clock: tr.now, trace: tr, sampleEvery: every}
}

func (d *Driver) id(conn, i int) string {
	prefix := d.prefix
	if d.trace != nil && i%d.sampleEvery == 0 {
		prefix = string(sampledPrefix)
	}
	return prefix + strconv.Itoa(conn) + "-" + strconv.Itoa(i)
}

func (d *Driver) send(id string, rq *Request) Answer {
	ans := do(d.top, d.clock, id, rq)
	if d.trace != nil && sampled(id) {
		d.trace.add(Span{Req: id, ID: id, Layer: layerClient, Start: ans.Start, End: ans.End})
	}
	return ans
}

// closedLoop runs one connection: the next request goes out when the
// previous answer is in, until more(i) says stop.
func (d *Driver) closedLoop(conn int, s Stream, more func(i int) bool) *Tally {
	t := newTally()
	for i := 0; more(i); i++ {
		rq := s.next(i)
		ans := d.send(d.id(conn, i), rq)
		t.add(rq, &ans, ans.Start)
		s.done(i, rq, &ans)
	}
	return t
}

// maxOpenInFlight bounds the open loop's concurrent requests: the
// scheduler's own in-flight limit (64 × slots) at one slot.
const maxOpenInFlight = 64

// openLoop runs one traffic source on a schedule: request i is due at
// dueNs[i] after the start, and is sent then whether or not earlier ones
// have been answered (each on its own connection if need be). Latency
// counts from the due time.
func (d *Driver) openLoop(conn int, s Stream, dueNs []int64) *Tally {
	t := newTally()
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, maxOpenInFlight)
	start := d.clock()
	for i, due := range dueNs {
		if wait := time.Duration(start + due - d.clock()); wait > 0 {
			time.Sleep(wait)
		}
		rq := s.next(i)
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, due int64) {
			defer wg.Done()
			defer func() { <-sem }()
			ans := d.send(d.id(conn, i), rq)
			_, late := openLoopTimes(start+due, ans.Start, ans.End)
			mu.Lock()
			t.add(rq, &ans, start+due)
			t.LateMs = append(t.LateMs, float64(late)/1e6)
			mu.Unlock()
		}(i, due)
	}
	wg.Wait()
	return t
}
