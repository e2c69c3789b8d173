package runtime

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/pybench"
)

var updateStreams = flag.Bool("update-eventstream", false, "regenerate testdata/eventstream.golden")

const streamGolden = "testdata/eventstream.golden"

// streamPrograms spans the emit layer's callers: method dispatch and
// frames (richards), float boxing (nbody), the three modeled C libraries
// (json, pickle, regex), string building (spitfire), and allocation
// pressure that drives both collectors (tuple_gc, unpack_seq).
var streamPrograms = []string{
	"richards", "nbody", "json_dumps", "unpickle_list", "pickle_dict",
	"regex_effbot", "spitfire", "tuple_gc", "unpack_seq",
}

// hashSink folds every field of every event, in order, into an FNV-64a
// hash: two runs agree on (n, h) only if their event streams are
// byte-identical.
type hashSink struct{ n, h uint64 }

func newHashSink() *hashSink { return &hashSink{h: 14695981039346656037} }

func (s *hashSink) word(v uint64, bytes int) {
	for i := 0; i < bytes; i++ {
		s.h = (s.h ^ (v & 0xff)) * 1099511628211
		v >>= 8
	}
}

func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (s *hashSink) Exec(ev *isa.Event) {
	s.n++
	s.word(ev.PC, 8)
	s.word(ev.Addr, 8)
	s.word(ev.Target, 8)
	s.word(uint64(ev.Size), 1)
	s.word(uint64(ev.Kind), 1)
	s.word(uint64(ev.Cat), 1)
	s.word(uint64(ev.Phase), 1)
	s.word(bit(ev.Taken), 1)
	s.word(bit(ev.DepPrev), 1)
	s.word(bit(ev.CLib), 1)
}

// streamOf runs one benchmark the way the Runner runs an attributed job
// — state built or restored against the null sink, then the observing
// sink attached — and returns the fingerprint of the stream and of
// the program's output. A non-empty prior first runs that benchmark
// unobserved on the same Runner and restores it with Reset, so the
// stream comes from a reused VM.
func streamOf(t *testing.T, name, prior string, mode Mode) string {
	t.Helper()
	r, err := NewRunner(ServingConfig(mode))
	if err != nil {
		t.Fatal(err)
	}
	if prior != "" {
		p, err := pybench.ByName(prior)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.RunCode(p.Compiled()); err != nil {
			t.Fatalf("%s on %s: %v", prior, mode, err)
		}
	}
	b, err := pybench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	h := newHashSink()
	r.Reset()
	r.st.eng.SetSink(h)
	res, err := r.RunCode(b.Compiled())
	if err != nil {
		t.Fatalf("%s on %s: %v", name, mode, err)
	}
	out := newHashSink()
	for _, c := range []byte(res.Output) {
		out.word(uint64(c), 1)
	}
	return fmt.Sprintf("%d %016x out=%016x", h.n, h.h, out.h)
}

// TestEventStreamGolden pins the armed event stream: the golden file was
// generated at the commit before emission learned to skip work when no
// sink is armed, and every (program, mode) stream must still hash to the
// same value, both on a fresh Runner and on one restored after running a
// different benchmark. The simulated cores, the breakdown-on-demand
// serving path and every paper-reproduction figure consume exactly this
// stream.
func TestEventStreamGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 72 armed benchmark executions")
	}
	got := map[string]string{}
	for i, name := range streamPrograms {
		prior := streamPrograms[(i+1)%len(streamPrograms)]
		for m := Mode(0); m < NumModes; m++ {
			key := name + "/" + m.String()
			got[key] = streamOf(t, name, "", m)
			if restored := streamOf(t, name, prior, m); restored != got[key] {
				t.Errorf("%s: stream after %s and Reset = %s, fresh Runner %s", key, prior, restored, got[key])
			}
		}
	}
	if *updateStreams {
		var lines []string
		for k, v := range got {
			lines = append(lines, k+" "+v)
		}
		sort.Strings(lines)
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(streamGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(streamGolden)
	if err != nil {
		t.Fatalf("%v (generate with -update-eventstream at a commit whose stream is trusted)", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		key, val, _ := strings.Cut(line, " ")
		want[key] = val
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d streams, test ran %d", len(want), len(got))
	}
	for k, v := range got {
		if want[k] != v {
			t.Errorf("%s: stream (events, fnv64) = %s, golden %s", k, v, want[k])
		}
	}
}
