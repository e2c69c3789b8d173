package harness

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/difftest"
	"repro/internal/interp"
	"repro/internal/runtime"
	"repro/internal/supervise"
)

// Program is one corpus entry: a source, the mode it runs under, and
// its reference result.
type Program struct {
	Name string
	Src  string
	Mode runtime.Mode
	// Want is what a fresh exclusive Runner (supervise.ReferenceRun)
	// produced for this source and mode under limits.
	Want *supervise.JobResult
}

// limits are the budgets the corpus is stamped under and every depth
// runs it under. The step budget decides outcomes; the deadline is a
// backstop that only needs to beat forever, so which entries the corpus
// keeps does not depend on machine speed. The HTTP target sends only
// the deterministic budgets, so the tier it drives applies its own
// deadline, and the sched depth runs under a tighter one.
var limits = interp.Limits{
	MaxSteps:       2_000_000,
	MaxHeapBytes:   64 << 20,
	MaxOutputBytes: 1 << 20,
	Deadline:       30 * time.Second,
}

// templates are the hand-written corpus members: hot loops of 10^4 to
// 10^6 bytecodes, so a front tier's per-request overhead is measured
// against realistic work, and a step-sliced depth preempts them many
// times.
var templates = []struct{ name, src string }{
	{"arith_sum", `s = 0
i = 0
while i < 60000:
    s = s + i * i - (i & 7)
    i = i + 1
print(s)
`},
	{"attr_norm", `class P:
    def __init__(self, x, y):
        self.x = x
        self.y = y
    def norm(self):
        return self.x * self.x + self.y * self.y

acc = 0
p = P(3, 4)
for i in xrange(60000):
    p.x = i & 255
    acc = acc + p.norm()
print(acc)
`},
	{"dict_churn", `d = {}
for i in xrange(30000):
    d[i & 511] = i
s = 0
for i in xrange(512):
    s = s + d.get(i, 0)
print(s)
print(len(d))
`},
	{"call_fib", `def fib(n):
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)

print(fib(19))
`},
	{"str_build", `parts = []
for i in xrange(4000):
    parts.append("x%d" % (i & 63))
s = "".join(parts)
print(len(s))
`},
	{"long_loop", `i = 0
acc = 0
while i < 150000:
    acc = acc + i
    i = i + 1
print(acc)
`},
}

// Corpus builds n sources — the templates first, then difftest-generated
// programs from seed on, for breadth — each under every runtime mode and
// stamped with its reference, one mode per goroutine. Entries whose
// reference trips a limit are left out: where they trip would depend on
// load, not on the program.
func Corpus(n int, seed uint64) []Program {
	type source struct{ name, src string }
	srcs := make([]source, n)
	for i := range srcs {
		if i < len(templates) {
			srcs[i] = source{templates[i].name, templates[i].src}
			continue
		}
		s := seed + uint64(i-len(templates))
		srcs[i] = source{fmt.Sprintf("gen_%d", s), difftest.Generate(s)}
	}
	stamped := make([][runtime.NumModes]Program, n)
	var wg sync.WaitGroup
	for m := runtime.Mode(0); m < runtime.NumModes; m++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, s := range srcs {
				stamped[i][m] = Program{Name: s.name, Src: s.src, Mode: m, Want: supervise.ReferenceRun(s.name, s.src, m, limits)}
			}
		}()
	}
	wg.Wait()
	var out []Program
	for i := range stamped {
		for _, p := range stamped[i] {
			if p.Want.Class == supervise.ClassOK || p.Want.Class == supervise.ClassError {
				out = append(out, p)
			}
		}
	}
	return out
}
