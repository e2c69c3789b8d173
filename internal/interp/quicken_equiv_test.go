package interp_test

// The quickening-equivalence layer: tier-1 inline caches and the full
// tier-2 pipeline (polymorphic stubs, superinstruction fusion,
// speculative unboxed-int rewrites) are pure performance transforms.
// For every difftest corpus program, a sweep of generated programs,
// and the int64 boundary cases, all three tiers must agree on program
// output, exception identity, module-dict version bumps, and — for
// clean runs — the net reference-count balance
// (Increfs + Allocations - Decrefs), which counts objects still live
// at exit and so must not depend on which dispatch path ran. Gross
// incref/decref totals legitimately differ: fused operand borrowing
// elides balanced pairs.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/difftest"
	"repro/internal/emit"
	"repro/internal/gc"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/pycompile"
)

type tierOutcome struct {
	Output  string
	Err     string
	DictVer uint32
	NetRefs int64
}

// tier 0 = generic (quickening off), 1 = tier-1 (monomorphic ICs only),
// 2 = full tier-2.
var tierNames = [3]string{"generic", "tier-1", "tier-2"}

func runTier(t *testing.T, name, src string, tier int) tierOutcome {
	t.Helper()
	var out strings.Builder
	vm := interp.New(emit.NewEngine(isa.NullSink{}), gc.DefaultRefCountConfig(), &out)
	vm.MaxBytecodes = difftest.DefaultBudget
	switch tier {
	case 0:
		vm.SetQuicken(false)
	case 1:
		vm.SetPolyICs(false)
		vm.SetFusion(false)
		vm.SetIntFast(false)
	}
	res := tierOutcome{}
	if err := vm.RunSource(name, src); err != nil {
		res.Err = err.Error()
	}
	res.Output = out.String()
	if vm.Globals != nil {
		res.DictVer = vm.Globals.Version
	}
	st := vm.Heap.Stats
	res.NetRefs = int64(st.Increfs) + int64(st.Allocations) - int64(st.Decrefs)
	return res
}

// exportSeed runs src to completion on a throwaway donor VM and exports
// its portable IC seed — the progstore seed-donation path, in miniature.
// Nil when the run quickened nothing.
func exportSeed(t *testing.T, name, src string) *interp.ICSeed {
	t.Helper()
	code, err := pycompile.CompileSource(name, src)
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	var out strings.Builder
	vm := interp.New(emit.NewEngine(isa.NullSink{}), gc.DefaultRefCountConfig(), &out)
	vm.MaxBytecodes = difftest.DefaultBudget
	_ = vm.RunCode(code)
	return vm.ExportICSeed(code)
}

// runSeeded runs src on a fresh full-tier VM warm-started from seed.
func runSeeded(t *testing.T, name, src string, seed *interp.ICSeed) tierOutcome {
	t.Helper()
	var out strings.Builder
	vm := interp.New(emit.NewEngine(isa.NullSink{}), gc.DefaultRefCountConfig(), &out)
	vm.MaxBytecodes = difftest.DefaultBudget
	vm.SetICSeed(seed)
	res := tierOutcome{}
	if err := vm.RunSource(name, src); err != nil {
		res.Err = err.Error()
	}
	res.Output = out.String()
	if vm.Globals != nil {
		res.DictVer = vm.Globals.Version
	}
	st := vm.Heap.Stats
	res.NetRefs = int64(st.Increfs) + int64(st.Allocations) - int64(st.Decrefs)
	return res
}

// foreignSeedSrc is an unrelated attribute-heavy program whose exported
// seed is maximally wrong for any other program: the cross-seeded leg
// arms it anyway, and behaviour still may not change (wrong entries are
// rejected by the hit-path guards and cost at most a refill).
const foreignSeedSrc = `
class P:
    def __init__(self, a):
        self.a = a
    def bump(self):
        self.a = self.a + 1
        return self.a
p = P(0)
q = P(100)
total = 0
i = 0
while i < 50:
    total = total + p.bump() + q.bump()
    i = i + 1
print(total)
`

// compareOutcome applies the equivalence rules: output, exception
// identity, and module-dict version always; net refcounts only for
// clean runs (an exception unwinds through tier-specific code with
// tier-specific temporaries).
func compareOutcome(t *testing.T, name, leg string, base, got tierOutcome) {
	t.Helper()
	if got.Output != base.Output {
		t.Errorf("%s: %s output diverged from generic\n--- generic ---\n%s--- %s ---\n%s",
			name, leg, base.Output, leg, got.Output)
	}
	if got.Err != base.Err {
		t.Errorf("%s: %s exception diverged: generic %q, %s %q",
			name, leg, base.Err, leg, got.Err)
	}
	if got.DictVer != base.DictVer {
		t.Errorf("%s: %s module-dict version diverged: generic %d, %s %d",
			name, leg, base.DictVer, leg, got.DictVer)
	}
	if base.Err == "" && got.NetRefs != base.NetRefs {
		t.Errorf("%s: %s net refcount balance diverged: generic %d, %s %d",
			name, leg, base.NetRefs, leg, got.NetRefs)
	}
}

// assertTiersAgree runs src at all three tiers plus the seeded-cold
// legs (own-donor seed and a foreign program's seed) and fails on any
// divergence. The seeded legs prove the progstore IC-seed contract:
// a seed — right or wrong — may only pre-fill caches, never change
// output, exception identity, dict versions, or net refcounts.
func assertTiersAgree(t *testing.T, name, src string) {
	t.Helper()
	base := runTier(t, name, src, 0)
	for tier := 1; tier <= 2; tier++ {
		compareOutcome(t, name, tierNames[tier], base, runTier(t, name, src, tier))
	}
	compareOutcome(t, name, "seeded-cold", base, runSeeded(t, name, src, exportSeed(t, name, src)))
	compareOutcome(t, name, "cross-seeded", base,
		runSeeded(t, name, src, exportSeed(t, "foreign.py", foreignSeedSrc)))
}

func TestQuickenEquivCorpus(t *testing.T) {
	corpus, err := difftest.LoadCorpus("../difftest/corpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) == 0 {
		t.Fatal("empty difftest corpus")
	}
	for name, src := range corpus {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			assertTiersAgree(t, name, src)
		})
	}
}

func TestQuickenEquivGenerated(t *testing.T) {
	if testing.Short() {
		t.Skip("generated equivalence sweep skipped in -short mode")
	}
	const seeds = 24
	for seed := uint64(1); seed <= seeds; seed++ {
		seed := seed
		name := fmt.Sprintf("gen_%03d", seed)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			assertTiersAgree(t, name, difftest.Generate(seed))
		})
	}
}

// int64 boundary programs: the unboxed-int speculation must deopt on
// the exact overflow edge and reproduce the generic OverflowError (or
// clean result) bit-for-bit.
var boundaryPrograms = map[string]string{
	"boundary_pos_edge": `
big = 9223372036854775807
print(big - 1)
print(big - 1 + 1)
x = big + 1
print(x)
`,
	"boundary_neg_edge": `
neg = 0 - 9223372036854775807
neg = neg - 1
print(neg)
y = neg - 1
print(y)
`,
	"boundary_mul": `
half = 3037000499
print(half * half)
z = half * half * 4
print(z)
`,
	"boundary_clean_loop": `
acc = 9223372036854775000
i = 0
while i < 800:
    acc = acc + 1
    i = i + 1
print(acc)
`,
}

func TestQuickenEquivInt64Boundary(t *testing.T) {
	sawOverflow := false
	for name, src := range boundaryPrograms {
		assertTiersAgree(t, name, src)
		if out := runTier(t, name, src, 0); strings.Contains(out.Err, "OverflowError") {
			sawOverflow = true
		}
	}
	if !sawOverflow {
		t.Error("no boundary program tripped OverflowError; the deopt edge is untested")
	}
}
