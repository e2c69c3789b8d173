package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/progstore"
	"repro/internal/runtime"
	"repro/internal/supervise"
)

// runnerTarget runs every job of a mode on one Runner, reset between
// jobs: the depth that shows whether Reset leaves anything behind.
type runnerTarget struct {
	mu      [runtime.NumModes]sync.Mutex
	runners [runtime.NumModes]*runtime.Runner
}

func newRunnerTarget() (*runnerTarget, error) {
	t := &runnerTarget{}
	for m := range t.runners {
		rc := runtime.ServingConfig(runtime.Mode(m))
		rc.Limits = limits
		r, err := runtime.NewRunner(rc)
		if err != nil {
			return nil, err
		}
		t.runners[m] = r
	}
	return t, nil
}

func (t *runnerTarget) Run(p *Program, _ int64) Outcome {
	t.mu[p.Mode].Lock()
	defer t.mu[p.Mode].Unlock()
	r := t.runners[p.Mode]
	defer r.Reset()
	start := time.Now()
	res, err := r.Run(p.Name, p.Src)
	o := Outcome{Class: supervise.Classify(err), Latency: time.Since(start)}
	if err != nil {
		o.Err = err.Error()
	} else {
		o.Output = res.Output
	}
	return o
}

// schedTarget submits each job to a scheduler in-process, alternating
// priority lanes and spreading five tenants, so the step-sliced depth
// preempts and reclaims.
type schedTarget struct{ s *supervise.Sched }

func (t schedTarget) Run(p *Program, seq int64) Outcome {
	start := time.Now()
	res := t.s.Submit(&supervise.Job{
		Name: p.Name, Src: p.Src, Mode: p.Mode,
		Lane: int(seq % 2), Tenant: fmt.Sprintf("t%d", seq%5),
	})
	return Outcome{Class: res.Class, Err: res.Err, Output: res.Output, RetryAfter: res.RetryAfter, Latency: time.Since(start)}
}

// HTTP is the /v1/run target: a serve, a router, or any external
// endpoint speaking the v1 API.
type HTTP struct {
	// URL is the tier's base URL.
	URL string
	// Keys stamps request seq with idempotency key "idem-<seq>",
	// authorizing replays of mid-flight failures.
	Keys   bool
	client *http.Client
	byRef  bool
}

// NewHTTP builds a target for url whose client keeps conc connections
// alive and gives up on one request after timeout.
func NewHTTP(url string, conc int, timeout time.Duration) *HTTP {
	return &HTTP{URL: url, client: &http.Client{
		Timeout:   timeout,
		Transport: &http.Transport{MaxIdleConns: 2 * conc, MaxIdleConnsPerHost: 2 * conc},
	}}
}

// Register registers every corpus program with POST /v1/programs and
// switches the target to run-by-reference: requests then ship a
// programRef instead of inline source.
func (t *HTTP) Register(corpus []Program) error {
	for _, p := range corpus {
		body, _ := json.Marshal(api.RegisterRequestV1{Name: p.Name, Src: p.Src})
		resp, err := t.client.Post(t.URL+"/v1/programs", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("register %s: %v", p.Name, err)
		}
		rb, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("register %s: status %d: %s", p.Name, resp.StatusCode, rb)
		}
	}
	t.byRef = true
	return nil
}

// Run performs one POST /v1/run and classifies the reply.
func (t *HTTP) Run(p *Program, seq int64) Outcome {
	// Only the deterministic budgets go on the wire: a wall-clock
	// deadline enforced on a loaded server would flip edge programs to
	// timeout by contention, not by program.
	lim := limits
	lim.Deadline = 0
	rr := api.RunRequestV1{Name: p.Name, Src: p.Src, Mode: p.Mode.String(), Limits: &lim}
	if t.byRef {
		rr.Src, rr.ProgramRef = "", progstore.Ref(p.Src)
	}
	if t.Keys {
		rr.IdempotencyKey = fmt.Sprintf("idem-%d", seq)
	}
	body, _ := json.Marshal(rr)
	req, err := http.NewRequest(http.MethodPost, t.URL+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return Outcome{Fail: "transport_error"}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.HeaderRequestID, fmt.Sprintf("harness-%d", seq))
	start := time.Now()
	resp, err := t.client.Do(req)
	if err != nil {
		return Outcome{Fail: "transport_error"}
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return Outcome{Fail: "transport_error"}
	}
	lat := time.Since(start)
	var env api.ErrorEnvelope
	if resp.StatusCode == http.StatusServiceUnavailable && json.Unmarshal(rb, &env) == nil && env.Err.Code != "" {
		return Outcome{Fail: env.Err.Code, Latency: lat} // the router's no_backends, retry_budget_exhausted
	}
	switch resp.StatusCode {
	case http.StatusOK, http.StatusServiceUnavailable: // a 503 run result is a shed
		var res api.RunResultV1
		if json.Unmarshal(rb, &res) != nil {
			return Outcome{Fail: "transport_error", Latency: lat}
		}
		class, err := supervise.ParseClass(res.ExitClass)
		if err != nil {
			class = supervise.NumClasses
		}
		o := Outcome{Class: class, Err: res.Error, Output: res.Stdout, Executions: res.Executions, Deduped: res.Deduped, Latency: lat}
		if resp.Header.Get("Retry-After") != "" {
			o.RetryAfter = time.Duration(res.RetryAfter * float64(time.Millisecond))
		}
		return o
	case http.StatusBadGateway:
		return Outcome{Fail: "upstream_error", Latency: lat}
	}
	return Outcome{Fail: fmt.Sprintf("http_%d", resp.StatusCode), Latency: lat}
}
