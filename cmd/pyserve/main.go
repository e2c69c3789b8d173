// Command pyserve is the MiniPy serving daemon: an HTTP/JSON front end
// over the internal/supervise scheduler. Programs run on warm, reusable
// VMs under per-request resource budgets; a poisoned or wedged VM is
// dropped and the next job gets a fresh one, without dropping the
// service.
// The server itself lives in internal/serve so the routing tier
// (internal/route, cmd/pyroute) can spin in-process backends; this
// command is flag parsing and wiring.
//
// Usage:
//
//	pyserve [-addr :8042] [-workers 4] [-queue 8] [-timeout 5s]
//	        [-max-steps n] [-max-heap bytes] [-max-output bytes]
//	        [-recycle 256] [-dedup-ttl 5m] [-dedup-cap 4096]
//	        [-prog-ttl 30m] [-prog-cap 1024]
//	        [-sched] [-lanes 2] [-quantum-steps 50000]
//
// By default the scheduler runs in its exclusive configuration
// (supervise.NewPool): -workers jobs run at once, each holding its VM
// until it finishes, with -queue more waiting. With -sched it is
// step-sliced instead: -workers becomes the concurrent slot count, jobs
// interleave at -quantum-steps granularity under strict-priority lanes
// and per-tenant round-robin, and many more jobs than slots can be in
// flight at once (long programs no longer block short ones). A job that
// finds every slot held, one by a lower lane, takes that slot within
// ~1k bytecodes rather than at the end of the lower job's quantum.
//
// Endpoints (versioned API, see internal/api and internal/serve):
//
//	POST /v1/run     execute one program (inline src or by programRef);
//	                 errors carry the machine-readable envelope
//	POST /v1/programs          register source in the content-addressed
//	                           program store; returns its programRef
//	GET/DELETE /v1/programs/{ref}  store metadata / invalidation
//	GET  /v1/metrics Prometheus text exposition
//	GET  /v1/healthz pure liveness (200 while any worker is alive,
//	                 draining included)
//	GET  /v1/readyz  readiness (503 while draining or shedding at the
//	                 heap watermark)
//	POST /drainz     graceful drain
//
// plus the deprecated unversioned aliases /run, /metrics, /healthz.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/interp"
	"repro/internal/serve"
	"repro/internal/supervise"
	"repro/internal/telemetry"
)

func run() int {
	var (
		addr      = flag.String("addr", ":8042", "listen address")
		workers   = flag.Int("workers", 4, "jobs executing at once (warm VM slots)")
		queue     = flag.Int("queue", 0, "admission queue depth (0: 2x workers)")
		timeout   = flag.Duration("timeout", 5*time.Second, "default wall-clock deadline per job")
		maxSteps  = flag.Uint64("max-steps", 50_000_000, "default step budget per job (0: unlimited)")
		maxHeap   = flag.Uint64("max-heap", 256<<20, "default live-heap cap per job in bytes (0: unlimited)")
		maxOutput = flag.Uint64("max-output", 8<<20, "default output cap per job in bytes (0: unlimited)")
		recycle   = flag.Int("recycle", 256, "retire a warm VM after this many jobs")
		drainWait = flag.Duration("drain-timeout", 30*time.Second, "how long /drainz waits for in-flight jobs")
		dedupTTL  = flag.Duration("dedup-ttl", 5*time.Minute, "how long an idempotency key's recorded result answers replays after its last use")
		dedupCap  = flag.Int("dedup-cap", 4096, "max idempotency keys held in the dedup cache")
		progTTL   = flag.Duration("prog-ttl", 30*time.Minute, "how long a registered program stays resolvable by reference after its last use")
		progCap   = flag.Int("prog-cap", 1024, "max programs held in the content-addressed store")
		sched     = flag.Bool("sched", false, "step-sliced scheduler backend: jobs interleave at quantum granularity instead of holding a worker exclusively")
		lanes     = flag.Int("lanes", 2, "strict-priority lanes (with -sched; lane 0 served first)")
		quantum   = flag.Uint64("quantum-steps", 0, "preemption granularity in bytecodes (with -sched; 0: 50k default)")
	)
	flag.Parse()

	reg := telemetry.NewRegistry()
	limits := interp.Limits{
		MaxSteps:       *maxSteps,
		MaxHeapBytes:   *maxHeap,
		Deadline:       *timeout,
		MaxOutputBytes: *maxOutput,
	}
	var backend serve.Backend
	if *sched {
		s := supervise.NewSched(supervise.SchedConfig{
			Slots:         *workers,
			QuantumSteps:  *quantum,
			Lanes:         *lanes,
			RecycleAfter:  *recycle,
			Metrics:       supervise.NewMetrics(reg),
			DefaultLimits: limits,
		})
		defer s.Close()
		backend = s
	} else {
		pool := supervise.NewPool(supervise.Config{
			Workers:       *workers,
			QueueDepth:    *queue,
			RecycleAfter:  *recycle,
			Metrics:       supervise.NewMetrics(reg),
			DefaultLimits: limits,
		})
		defer pool.Close()
		backend = pool
	}

	srv := serve.NewWithOptions(backend, reg, serve.Options{
		DrainTimeout: *drainWait,
		LogW:         os.Stderr,
		DedupTTL:     *dedupTTL,
		DedupCap:     *dedupCap,
		ProgTTL:      *progTTL,
		ProgCap:      *progCap,
	})
	mode := "workers"
	if *sched {
		mode = "step-sliced slots"
	}
	fmt.Fprintf(os.Stderr, "pyserve: listening on %s (%d %s)\n", *addr, *workers, mode)
	if err := http.ListenAndServe(*addr, srv.Mux()); err != nil {
		fmt.Fprintln(os.Stderr, "pyserve:", err)
		return 1
	}
	return 0
}

func main() { os.Exit(run()) }
