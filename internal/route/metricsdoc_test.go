package route

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/internal/supervise"
	"repro/internal/telemetry"
)

// readmeRow matches one family row of README's Observability table:
// | `name` | type | labels | what moves it |
var readmeRow = regexp.MustCompile("^\\| `([a-zA-Z_:][a-zA-Z0-9_:]*)` \\| (\\w+) \\|")

// TestReadmeObservabilityTable is the metric-name doc lint: every family
// the serving stack registers — scheduler, pyserve (dedup, integrity,
// program store) and router — has a README row with its type, and every
// row names a family that still exists.
func TestReadmeObservabilityTable(t *testing.T) {
	reg := telemetry.NewRegistry()
	pool := supervise.NewPool(supervise.Config{Workers: 1, Metrics: supervise.NewMetrics(reg)})
	defer pool.Close()
	serve.NewWithOptions(pool, reg, serve.Options{})
	urls := []string{"http://127.0.0.1:1"}
	rt, err := New(Config{Backends: urls, ProbeInterval: quietProbes, Metrics: NewMetrics(reg, urls)})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	registered := map[string]string{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			registered[f[2]] = f[3]
		}
	}

	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	section := string(readme)
	start := strings.Index(section, "\n## Observability\n")
	if start < 0 {
		t.Fatal("README has no Observability section")
	}
	section = section[start+1:]
	if end := strings.Index(section[3:], "\n## "); end >= 0 {
		section = section[:end+3]
	}
	documented := map[string]string{}
	for _, line := range strings.Split(section, "\n") {
		if m := readmeRow.FindStringSubmatch(line); m != nil {
			documented[m[1]] = m[2]
		}
	}

	for name, typ := range registered {
		switch doc, ok := documented[name]; {
		case !ok:
			t.Errorf("README Observability table has no row for %s (%s)", name, typ)
		case doc != typ:
			t.Errorf("README lists %s as a %s; it is a %s", name, doc, typ)
		}
	}
	for name := range documented {
		if _, ok := registered[name]; !ok {
			t.Errorf("README Observability table lists %s, which nothing registers", name)
		}
	}
}
