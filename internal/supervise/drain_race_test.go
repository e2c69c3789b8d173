package supervise

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/interp"
)

// TestDrainSubmitRace races Drain against a burst of concurrent Submits
// and asserts the scheduler's complete-or-shed contract: every job either
// runs to a correct completion (right output, no contamination) or is
// rejected with a shed classification carrying a retry hint. Nothing may
// hang, return a malformed class, or report success without the job's
// own output. This is the exact contract the routing tier's "never
// re-route a maybe-executed job" rule depends on: a shed means the
// program never ran, so the router may safely send it elsewhere; any
// other class means it may have — re-routing would double-execute.
//
// Runs under -race in CI (the interesting failures are orderings, not
// just outcomes).
func TestDrainSubmitRace(t *testing.T) {
	const (
		submitters = 16
		perG       = 8
	)
	for round := 0; round < 4; round++ {
		pool := NewPool(Config{
			Workers: 4,
			DefaultLimits: interp.Limits{
				MaxSteps: 10_000_000,
				Deadline: 5 * time.Second,
			},
		})

		type verdict struct {
			g, i int
			res  *JobResult
			want string
		}
		results := make(chan verdict, submitters*perG)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < perG; i++ {
					// Distinct expected output per job, so contamination
					// (another job's stdout) is detectable.
					n := g*1000 + i
					src := fmt.Sprintf("total = 0\nfor j in range(20):\n    total = total + j\nprint(total + %d)\n", n)
					res := pool.Submit(&Job{Name: fmt.Sprintf("race-%d-%d.py", g, i), Src: src})
					results <- verdict{g, i, res, fmt.Sprintf("%d\n", 190+n)}
				}
			}(g)
		}

		// Fire the burst, then drain somewhere in the middle of it.
		close(start)
		time.Sleep(time.Duration(round) * 200 * time.Microsecond)
		drained := pool.Drain(10 * time.Second)
		if !drained {
			t.Fatalf("round %d: drain timed out with submitters active", round)
		}
		wg.Wait()
		close(results)

		completed, shed := 0, 0
		for v := range results {
			res := v.res
			if res == nil {
				t.Fatalf("round %d: job %d/%d returned nil result", round, v.g, v.i)
			}
			switch res.Class {
			case ClassOK:
				completed++
				if res.Output != v.want {
					t.Fatalf("round %d: job %d/%d completed with wrong output %q, want %q (cross-job contamination?)",
						round, v.g, v.i, res.Output, v.want)
				}
			case ClassShed:
				shed++
				if res.RetryAfter <= 0 {
					t.Fatalf("round %d: job %d/%d shed without RetryAfter hint", round, v.g, v.i)
				}
				if res.Output != "" {
					t.Fatalf("round %d: job %d/%d shed but carries output %q — it ran?",
						round, v.g, v.i, res.Output)
				}
			default:
				t.Fatalf("round %d: job %d/%d class %s (%s), want ok or shed",
					round, v.g, v.i, res.Class, res.Err)
			}
		}
		if completed+shed != submitters*perG {
			t.Fatalf("round %d: %d completed + %d shed != %d submitted",
				round, completed, shed, submitters*perG)
		}

		// Post-drain quiet state: everything rejected, nothing running.
		if res := pool.Submit(&Job{Name: "late.py", Src: "print(1)\n"}); res.Class != ClassShed {
			t.Fatalf("round %d: post-drain submit class %s, want shed", round, res.Class)
		}
		st := pool.Stats()
		if st.Wedged != 0 || st.Poisoned != 0 {
			t.Fatalf("round %d: drain race condemned Runners: %+v", round, st)
		}
		pool.Close()
	}
}
