package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// -update regenerates the derived corpus files from the hand-written
// ones: corpus/handlers/*.py (templates × handlerSalts), every .out
// golden (stdout on the cold NoQuicken interpreter) and steps.txt. It is
// for the change that edits a program, which then reviews the diff; the
// benchmark itself never regenerates anything.
var update = flag.Bool("update", false, "regenerate corpus/handlers, goldens and steps.txt")

// coldRun executes src on a fresh runner of the named configuration.
func coldRun(t *testing.T, config, name, src string) RunStats {
	t.Helper()
	code, err := Compile(name, src)
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	r, err := NewProbeRunner(config)
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.Run(code)
	if err != nil {
		t.Fatalf("%s on %s: %v", name, config, err)
	}
	return st
}

func updateCorpus(t *testing.T) {
	steps := map[string]uint64{}
	for _, tpl := range templates {
		raw, err := os.ReadFile(filepath.Join("corpus", "templates", tpl.Name+".py"))
		if err != nil {
			t.Fatal(err)
		}
		tt := tpl
		tt.src = string(raw)
		steps["templates/"+tpl.Name] = coldRun(t, cfgCold, tpl.Name, tt.src).Bytecodes
		for k, salt := range handlerSalts {
			path := filepath.Join("corpus", "handlers", fmt.Sprintf("%s_%d.py", tpl.Name, k+1))
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(tt.Instantiate(salt)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, dir := range []string{"handlers", "kernels", "bg"} {
		paths, err := filepath.Glob(filepath.Join("corpus", dir, "*.py"))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			src, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			name := dir + "/" + strings.TrimSuffix(filepath.Base(p), ".py")
			st := coldRun(t, cfgCold, name, string(src))
			steps[name] = st.Bytecodes
			if err := os.WriteFile(strings.TrimSuffix(p, ".py")+".out", []byte(st.Stdout), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	names := make([]string, 0, len(steps))
	for n := range steps {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	sb.WriteString("# <program> <bytecodes on the cold interpreter>; templates at salt 0.\n")
	for _, n := range names {
		fmt.Fprintf(&sb, "%s %d\n", n, steps[n])
	}
	if err := os.WriteFile(filepath.Join("corpus", "steps.txt"), []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorpus proves the pinned corpus: every program meets its golden on
// the cold interpreter and under the serving configuration, and lands in
// its stated bytecode band; every handler file is its template at its
// pinned salt; every template's oracle agrees with real runs.
func TestCorpus(t *testing.T) {
	if *update {
		updateCorpus(t)
		t.Skip("corpus regenerated; rerun without -update (go:embed reads the files at build time)")
	}
	c, err := LoadCorpus()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Handlers) != len(templates)*len(handlerSalts) || len(c.Kernels) != 12 || len(c.Bg) != 1 {
		t.Fatalf("corpus has %d handlers, %d kernels, %d bg", len(c.Handlers), len(c.Kernels), len(c.Bg))
	}
	inBand := func(name string, got, pinned uint64) {
		t.Helper()
		if math.Abs(float64(got)-float64(pinned)) > stepBand*float64(pinned) {
			t.Errorf("%s: %d bytecodes, outside ±%.0f%% of pinned %d", name, got, stepBand*100, pinned)
		}
	}
	var all []*Program
	all = append(append(append(all, c.Handlers...), c.Kernels...), c.Bg...)
	for _, p := range all {
		for _, cfg := range []string{cfgCold, cfgUnarmed} {
			st := coldRun(t, cfg, p.Name, p.Src)
			if st.Stdout != p.Want {
				t.Errorf("%s on %s: stdout %q, golden %q", p.Name, cfg, st.Stdout, p.Want)
			}
			inBand(p.Name+" on "+cfg, st.Bytecodes, p.Steps)
		}
	}

	// Size classes the workloads are built on.
	for _, p := range c.Handlers {
		if p.Steps < 300 || p.Steps > 2000 {
			t.Errorf("%s: %d bytecodes, handlers are 300-2,000", p.Name, p.Steps)
		}
	}
	for _, p := range c.Bg {
		if p.Steps < 700_000 || p.Steps > 1_300_000 {
			t.Errorf("%s: %d bytecodes, background jobs are ~1M", p.Name, p.Steps)
		}
	}

	byName := map[string]*Program{}
	for _, p := range c.Handlers {
		byName[p.Name] = p
	}
	for _, tpl := range c.Templates {
		for k, salt := range handlerSalts {
			name := fmt.Sprintf("handlers/%s_%d", tpl.Name, k+1)
			h := byName[name]
			if h == nil {
				t.Errorf("%s is missing", name)
				continue
			}
			if h.Src != tpl.Instantiate(salt) {
				t.Errorf("%s is not template %s at salt %d", name, tpl.Name, salt)
			}
			if h.Want != tpl.Oracle(salt) {
				t.Errorf("%s: golden %q, oracle %q", name, h.Want, tpl.Oracle(salt))
			}
		}
		// The oracle against real runs, at the extremes the salt
		// streams reach and a few in between.
		for _, salt := range []int{0, 1, 99, 100_003, saltBase(999, phaseBaseline, 1) + 299_999} {
			st := coldRun(t, cfgUnarmed, tpl.Name, tpl.Instantiate(salt))
			if want := tpl.Oracle(salt); st.Stdout != want {
				t.Errorf("template %s salt %d: stdout %q, oracle %q", tpl.Name, salt, st.Stdout, want)
			}
			inBand(fmt.Sprintf("template %s salt %d", tpl.Name, salt), st.Bytecodes, tpl.Steps)
		}
	}
}
