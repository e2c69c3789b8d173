package interp_test

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/difftest"
	"repro/internal/emit"
	"repro/internal/gc"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/pyobj"
)

// namespaceShape is the length and version of the builtins dict and of
// every builtin module's dict.
func namespaceShape(vm *interp.VM) map[string][2]int {
	shape := map[string][2]int{"builtins": {vm.Builtins.Len(), int(vm.Builtins.Version)}}
	vm.Builtins.ForEach(func(k, v pyobj.Object) {
		if m, ok := v.(*pyobj.Module); ok {
			shape[m.Name] = [2]int{m.Dict.Len(), int(m.Dict.Version)}
		}
	})
	return shape
}

// TestModuleAttributesReadOnly: a program cannot rebind a builtin
// module's attribute (MiniPy has no import statement; modules are
// builtins).
func TestModuleAttributesReadOnly(t *testing.T) {
	vm := interp.New(emit.NewEngine(isa.NullSink{}), gc.DefaultRefCountConfig(), io.Discard)
	err := vm.RunSource("rebind.py", "math.pi = 3\n")
	if err == nil || !strings.HasPrefix(err.Error(), "AttributeError") {
		t.Fatalf("math.pi = 3: got %v, want AttributeError", err)
	}
}

// TestBuiltinNamespacesUnchanged pins what VM.Reset relies on to share
// the builtins and the builtin module namespaces across jobs: no served
// program (the benchmark's handler templates and kernels) and no
// generated program changes their length or version.
func TestBuiltinNamespacesUnchanged(t *testing.T) {
	progs := map[string]string{}
	for _, glob := range []string{"templates/*.py", "kernels/*.py"} {
		paths, _ := filepath.Glob(filepath.Join("..", "..", "bench", "corpus", glob))
		for _, p := range paths {
			src, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			progs[p] = string(src)
		}
	}
	if len(progs) != 20 {
		t.Fatalf("found %d bench programs, want 8 templates + 12 kernels", len(progs))
	}
	n := 60
	if testing.Short() {
		n = 10
	}
	for seed := uint64(1); seed <= uint64(n); seed++ {
		progs[fmt.Sprintf("gen_seed%d.py", seed)] = difftest.Generate(seed)
	}
	for _, heap := range []gc.Config{gc.DefaultRefCountConfig(), gc.DefaultGenConfig(64 << 10)} {
		vm := interp.New(emit.NewEngine(isa.NullSink{}), heap, io.Discard)
		want := namespaceShape(vm)
		for name, src := range progs {
			vm.MaxBytecodes = difftest.DefaultBudget
			_ = vm.RunSource(name, src) // errors are program outcomes; only the namespaces matter
			for k, v := range namespaceShape(vm) {
				if want[k] != v {
					t.Fatalf("after %s: %s (len, version) = %v, was %v", name, k, v, want[k])
				}
			}
			vm.Reset()
		}
	}
}
