package runtime

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pycompile"
)

// BenchmarkRunnerReset times what a warm worker pays between jobs: one
// Reset after a served handler ran on the Runner (the run itself is off
// the clock). Allocations are the Reset's alone.
func BenchmarkRunnerReset(b *testing.B) {
	path := filepath.Join("..", "..", "bench", "corpus", "handlers", "kv_parse_1.py")
	src, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	code, err := pycompile.CompileSource("kv_parse_1.py", string(src))
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []Mode{CPython, PyPyJIT} {
		b.Run(m.String(), func(b *testing.B) {
			r, err := NewRunner(ServingConfig(m))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if _, err := r.RunCode(code); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				r.Reset()
			}
		})
	}
}
