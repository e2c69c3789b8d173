package main

import (
	"embed"
	"fmt"
	"io/fs"
	"sort"
	"strconv"
	"strings"
)

// The corpus is pinned: every program and its expected stdout is a
// committed file, compiled into the binary so the benchmark reads the
// same bytes wherever it runs. Goldens were generated once on the cold
// (NoQuicken) interpreter; corpus_test.go proves them and never the
// benchmark itself.
//
//go:embed corpus
var corpusFS embed.FS

// Program is one pinned corpus entry.
type Program struct {
	// Name is the path under corpus/ without the .py suffix
	// ("kernels/nqueens").
	Name string
	Src  string
	// Want is the pinned stdout.
	Want string
	// Steps is the pinned reference bytecode count (corpus/steps.txt): the
	// program's size, and the unit of work goodput is counted in.
	Steps uint64
	// Ref is the content address the serving tier registered the program
	// under; filled by Topology.Register.
	Ref string
}

// Corpus is the whole pinned program set, by class.
type Corpus struct {
	Handlers  []*Program
	Kernels   []*Program
	Bg        []*Program
	Templates []*Template
}

// handlerSalts are the salts the committed corpus/handlers files were
// instantiated with: template × salt gives the 32 registered handlers.
var handlerSalts = [...]int{11, 257, 4099, 65551}

// stepBand is how far a program's measured bytecode count may sit from
// its pinned Steps before the corpus test rejects it.
const stepBand = 0.10

// LoadCorpus reads the embedded corpus.
func LoadCorpus() (*Corpus, error) {
	steps, err := loadSteps()
	if err != nil {
		return nil, err
	}
	c := &Corpus{}
	for _, class := range []struct {
		dir string
		dst *[]*Program
	}{{"handlers", &c.Handlers}, {"kernels", &c.Kernels}, {"bg", &c.Bg}} {
		paths, err := fs.Glob(corpusFS, "corpus/"+class.dir+"/*.py")
		if err != nil {
			return nil, err
		}
		sort.Strings(paths)
		for _, p := range paths {
			name := strings.TrimSuffix(strings.TrimPrefix(p, "corpus/"), ".py")
			src, err := corpusFS.ReadFile(p)
			if err != nil {
				return nil, err
			}
			want, err := corpusFS.ReadFile(strings.TrimSuffix(p, ".py") + ".out")
			if err != nil {
				return nil, fmt.Errorf("corpus: %s has no golden: %w", name, err)
			}
			st, ok := steps[name]
			if !ok {
				return nil, fmt.Errorf("corpus: %s has no entry in steps.txt", name)
			}
			*class.dst = append(*class.dst, &Program{Name: name, Src: string(src), Want: string(want), Steps: st})
		}
	}
	for _, t := range templates {
		src, err := corpusFS.ReadFile("corpus/templates/" + t.Name + ".py")
		if err != nil {
			return nil, err
		}
		if !strings.HasPrefix(string(src), saltLine) {
			return nil, fmt.Errorf("corpus: template %s does not start with %q", t.Name, saltLine)
		}
		st, ok := steps["templates/"+t.Name]
		if !ok {
			return nil, fmt.Errorf("corpus: template %s has no entry in steps.txt", t.Name)
		}
		tt := t
		tt.src, tt.Steps = string(src), st
		c.Templates = append(c.Templates, &tt)
	}
	if len(c.Handlers) == 0 || len(c.Kernels) == 0 || len(c.Bg) == 0 {
		return nil, fmt.Errorf("corpus: empty class (handlers %d, kernels %d, bg %d)",
			len(c.Handlers), len(c.Kernels), len(c.Bg))
	}
	return c, nil
}

// loadSteps parses corpus/steps.txt: "<name> <bytecodes>" per line.
func loadSteps() (map[string]uint64, error) {
	data, err := corpusFS.ReadFile("corpus/steps.txt")
	if err != nil {
		return nil, err
	}
	out := map[string]uint64{}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) != 2 {
			return nil, fmt.Errorf("corpus: steps.txt: bad line %q", line)
		}
		n, err := strconv.ParseUint(f[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("corpus: steps.txt: %q: %w", line, err)
		}
		out[f[0]] = n
	}
	return out, nil
}

// saltLine is the first line of every template; Instantiate rewrites it.
const saltLine = "SALT = 0\n"

// Template is a handler program with one integer constant left open, so
// every salt gives a source the serving tier has never seen, whose
// stdout Oracle computes in Go without running it.
type Template struct {
	Name   string
	Oracle func(salt int) string
	// Steps is the pinned bytecode count at salt 0.
	Steps uint64
	src   string
}

// Instantiate returns the template's source with SALT bound.
func (t *Template) Instantiate(salt int) string {
	return "SALT = " + strconv.Itoa(salt) + "\n" + t.src[len(saltLine):]
}

// templates lists the handler templates with their closed-form oracles.
// Each oracle restates what the program prints as a function of the
// salt; corpus_test.go holds it against real runs.
var templates = []Template{
	{Name: "csv_aggregate", Oracle: func(s int) string {
		return fmt.Sprintf("east=796;north=1364;south=1164;west=1285\n%d\n", 12*s+66)
	}},
	{Name: "json_roundtrip", Oracle: func(s int) string {
		return fmt.Sprintf("6 True\n%d user-%d,user-%d,user-%d\n", 3*s+24, s, s+2, s+4)
	}},
	{Name: "kv_parse", Oracle: func(s int) string {
		total, last := 0, ""
		for i := 0; i < 8; i++ {
			start := i * (10 + i)
			last = fmt.Sprintf("U%d:%d-%d:page,size,sort,token,user", s+i, start, start+10+i)
			total += len(last)
		}
		return fmt.Sprintf("%s\n%d\n", last, total)
	}},
	{Name: "order_totals", Oracle: func(s int) string {
		return fmt.Sprintf("order %d: 10 lines, subtotal 7795, tax 623, total 8418\nsku-%d\n", s, s%1000+9)
	}},
	{Name: "paginate", Oracle: func(s int) string {
		type row struct {
			key  int
			name string
		}
		rows := make([]row, 24)
		for i := range rows {
			rows[i] = row{(i*37 + s) % 101, "row-" + strconv.Itoa(i)}
		}
		sort.Slice(rows, func(a, b int) bool {
			if rows[a].key != rows[b].key {
				return rows[a].key < rows[b].key
			}
			return rows[a].name < rows[b].name
		})
		page := s % 4
		var out []string
		for _, r := range rows[page*6 : page*6+6] {
			out = append(out, fmt.Sprintf("%d:%s", r.key, r.name))
		}
		return fmt.Sprintf("page %d/4\n%s\n", page+1, strings.Join(out, " "))
	}},
	{Name: "route_match", Oracle: func(s int) string {
		return fmt.Sprintf("user:%d items:%d static:app.js 404:/users/x%d 404:/orders/%d user:%d\n4\n",
			s, s+1, s, s, s+2)
	}},
	{Name: "template_render", Oracle: func(s int) string {
		lines := []string{fmt.Sprintf("<h1>Order %d</h1>", s), "<ul>"}
		for i := 0; i < 10; i++ {
			cls, cents := "even", 995+150*i
			if i%2 == 1 {
				cls = "odd"
			}
			lines = append(lines, fmt.Sprintf("<li id='i%d' class='%s'>item-%d: $%d.%02d</li>",
				i, cls, s+i, cents/100, cents%100))
		}
		lines = append(lines, "</ul>")
		return fmt.Sprintf("%d\n5 True\n", len(strings.Join(lines, "\n")))
	}},
	{Name: "word_count", Oracle: func(s int) string {
		return fmt.Sprintf("the=4 dog=2 fox=2\n20 12 %d\n", 2*s+1)
	}},
}
