package interp_test

// Unit tests for the portable IC seed (icseed.go): export from a warm
// VM, import into a fresh one, and the SeedCorrupt chaos leg. The
// contract under test is the progstore warm-start invariant — a seed
// may pre-fill inline caches (SeedFills) or be discarded (SeedDrops),
// but can never change program behaviour.

import (
	"strings"
	"testing"

	"repro/internal/difftest"
	"repro/internal/emit"
	"repro/internal/faults"
	"repro/internal/gc"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/pycompile"
)

// seedTestSrc exercises every portable seed kind: global-builtin loads
// (print), attribute slot loads/stores, and method loads on instances.
const seedTestSrc = `
class Counter:
    def __init__(self):
        self.n = 0
    def inc(self):
        self.n = self.n + 1
        return self.n
c = Counter()
d = Counter()
total = 0
i = 0
while i < 200:
    total = total + c.inc() + d.inc()
    i = i + 1
print(total)
`

func newSeedVM(out *strings.Builder) *interp.VM {
	vm := interp.New(emit.NewEngine(isa.NullSink{}), gc.DefaultRefCountConfig(), out)
	vm.MaxBytecodes = difftest.DefaultBudget
	return vm
}

func TestICSeedExportAndWarmFill(t *testing.T) {
	code, err := pycompile.CompileSource("seed.py", seedTestSrc)
	if err != nil {
		t.Fatal(err)
	}

	// Donor: run warm, export.
	var donorOut strings.Builder
	donor := newSeedVM(&donorOut)
	if err := donor.RunCode(code); err != nil {
		t.Fatalf("donor run: %v", err)
	}
	seed := donor.ExportICSeed(code)
	if seed == nil || seed.Sites() == 0 {
		t.Fatalf("warm donor exported no seed sites (seed=%v)", seed)
	}

	// Cold baseline for comparison.
	var coldOut strings.Builder
	cold := newSeedVM(&coldOut)
	if err := cold.RunCode(code); err != nil {
		t.Fatalf("cold run: %v", err)
	}

	// Seeded: a fresh VM warm-started from the donor.
	var seededOut strings.Builder
	seeded := newSeedVM(&seededOut)
	seeded.SetICSeed(seed)
	if err := seeded.RunCode(code); err != nil {
		t.Fatalf("seeded run: %v", err)
	}
	if seededOut.String() != coldOut.String() {
		t.Errorf("seeded output diverged:\ncold:   %q\nseeded: %q", coldOut.String(), seededOut.String())
	}
	if seeded.Stats.IC.SeedFills == 0 {
		t.Error("seeded run recorded no SeedFills — the seed never landed")
	}
	// The point of the seed: the fresh VM misses less than a cold one.
	if seeded.Stats.IC.Misses() >= cold.Stats.IC.Misses() {
		t.Errorf("seeded IC misses (%d) not below cold (%d): warm start is not warming",
			seeded.Stats.IC.Misses(), cold.Stats.IC.Misses())
	}
}

// TestICSeedCorruptAdvisory arms the SeedCorrupt fault at every seed
// import site: every entry's guard-checked hint fields are damaged
// before the fill. Behaviour must be bit-identical to a cold run —
// corruption costs refills, never semantics.
func TestICSeedCorruptAdvisory(t *testing.T) {
	code, err := pycompile.CompileSource("seedcorrupt.py", seedTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	var donorOut strings.Builder
	donor := newSeedVM(&donorOut)
	if err := donor.RunCode(code); err != nil {
		t.Fatal(err)
	}
	seed := donor.ExportICSeed(code)
	if seed == nil {
		t.Fatal("no seed exported")
	}

	inj := faults.NewEveryNth(faults.SeedCorrupt, 1)
	var out strings.Builder
	vm := newSeedVM(&out)
	vm.Heap.SetFaults(inj)
	vm.SetICSeed(seed)
	if err := vm.RunCode(code); err != nil {
		t.Fatalf("corrupt-seeded run errored: %v", err)
	}
	if out.String() != donorOut.String() {
		t.Errorf("corrupt seed changed output:\nwant %q\ngot  %q", donorOut.String(), out.String())
	}
	if inj.Fired[faults.SeedCorrupt] == 0 {
		t.Error("SeedCorrupt never fired — the fault site is not wired")
	}
}

// TestICSeedForeignDropped arms a seed exported from a structurally
// different program: units whose paths or opcodes do not line up must
// be dropped, not applied, and behaviour must not change.
func TestICSeedForeignDropped(t *testing.T) {
	foreign := "x = 1\ny = 2\nprint(x + y)\n"
	fcode, err := pycompile.CompileSource("foreign.py", foreign)
	if err != nil {
		t.Fatal(err)
	}
	var fout strings.Builder
	fvm := newSeedVM(&fout)
	if err := fvm.RunCode(fcode); err != nil {
		t.Fatal(err)
	}
	seed := fvm.ExportICSeed(fcode)

	code, err := pycompile.CompileSource("seed.py", seedTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	var coldOut strings.Builder
	cold := newSeedVM(&coldOut)
	if err := cold.RunCode(code); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	vm := newSeedVM(&out)
	vm.SetICSeed(seed) // may be nil if the foreign program quickened nothing
	if err := vm.RunCode(code); err != nil {
		t.Fatalf("foreign-seeded run errored: %v", err)
	}
	if out.String() != coldOut.String() {
		t.Errorf("foreign seed changed output:\nwant %q\ngot  %q", coldOut.String(), out.String())
	}
}
