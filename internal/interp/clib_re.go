package interp

import (
	"strings"

	"repro/internal/core"
	"repro/internal/pyobj"
)

// registerReModule builds the re module: a backtracking regular-expression
// engine over MiniPy strings, modeled as C-extension code. Supported
// syntax: literals, '.', escapes (\d \D \w \W \s \S and escaped
// metacharacters), classes [a-z0-9_] with negation, quantifiers * + ?
// {m,n}, alternation |, grouping (...), and anchors ^ $.
//
// re.compile returns the pattern string; compiled programs are cached in
// the VM keyed by pattern text, so the compile cost is paid once per
// pattern as in CPython's sre.
func (vm *VM) registerReModule() {
	entries := map[string]pyobj.Object{}

	compileID := vm.reg("re.compile", 1024, true, true,
		func(vm *VM, _ pyobj.Object, args []pyobj.Object) pyobj.Object {
			vm.argCheck("re.compile", args, 1, 2)
			pat := vm.wantStr("re.compile", args[0])
			vm.compileRegex(pat.V)
			vm.Incref(pat)
			return pat
		})
	entries["compile"] = vm.method("compile", compileID)

	searchID := vm.reg("re.search", 512, true, true,
		func(vm *VM, _ pyobj.Object, args []pyobj.Object) pyobj.Object {
			vm.argCheck("re.search", args, 2, 2)
			prog := vm.compileRegex(vm.wantStr("re.search", args[0]).V)
			s := vm.wantStr("re.search", args[1])
			m := newMatcher(vm, prog, s)
			if start, end, ok := m.search(0); ok {
				return vm.NewStr(s.V[start:end])
			}
			vm.Incref(vm.None)
			return vm.None
		})
	entries["search"] = vm.method("search", searchID)

	matchID := vm.reg("re.match", 512, true, true,
		func(vm *VM, _ pyobj.Object, args []pyobj.Object) pyobj.Object {
			vm.argCheck("re.match", args, 2, 2)
			prog := vm.compileRegex(vm.wantStr("re.match", args[0]).V)
			s := vm.wantStr("re.match", args[1])
			m := newMatcher(vm, prog, s)
			if end, ok := m.matchAt(0); ok {
				return vm.NewStr(s.V[:end])
			}
			vm.Incref(vm.None)
			return vm.None
		})
	entries["match"] = vm.method("match", matchID)

	findallID := vm.reg("re.findall", 768, true, true,
		func(vm *VM, _ pyobj.Object, args []pyobj.Object) pyobj.Object {
			vm.argCheck("re.findall", args, 2, 2)
			prog := vm.compileRegex(vm.wantStr("re.findall", args[0]).V)
			s := vm.wantStr("re.findall", args[1])
			m := newMatcher(vm, prog, s)
			var items []pyobj.Object
			pos := 0
			for pos <= len(s.V) {
				start, end, ok := m.search(pos)
				if !ok {
					break
				}
				items = append(items, vm.NewStr(s.V[start:end]))
				if end == start {
					pos = end + 1
				} else {
					pos = end
				}
			}
			return vm.NewList(items)
		})
	entries["findall"] = vm.method("findall", findallID)

	subID := vm.reg("re.sub", 768, true, true,
		func(vm *VM, _ pyobj.Object, args []pyobj.Object) pyobj.Object {
			vm.argCheck("re.sub", args, 3, 3)
			prog := vm.compileRegex(vm.wantStr("re.sub", args[0]).V)
			repl := vm.wantStr("re.sub", args[1])
			s := vm.wantStr("re.sub", args[2])
			m := newMatcher(vm, prog, s)
			var sb strings.Builder
			pos := 0
			for pos <= len(s.V) {
				start, end, ok := m.search(pos)
				if !ok {
					break
				}
				sb.WriteString(s.V[pos:start])
				sb.WriteString(repl.V)
				if end == start {
					if start < len(s.V) {
						sb.WriteByte(s.V[start])
					}
					pos = end + 1
				} else {
					pos = end
				}
			}
			if pos <= len(s.V) {
				sb.WriteString(s.V[pos:])
			}
			return vm.NewStr(sb.String())
		})
	entries["sub"] = vm.method("sub", subID)

	splitID := vm.reg("re.split", 512, true, true,
		func(vm *VM, _ pyobj.Object, args []pyobj.Object) pyobj.Object {
			vm.argCheck("re.split", args, 2, 2)
			prog := vm.compileRegex(vm.wantStr("re.split", args[0]).V)
			s := vm.wantStr("re.split", args[1])
			m := newMatcher(vm, prog, s)
			var items []pyobj.Object
			pos, last := 0, 0
			for pos <= len(s.V) {
				start, end, ok := m.search(pos)
				if !ok || end == start {
					break
				}
				items = append(items, vm.NewStr(s.V[last:start]))
				pos, last = end, end
			}
			items = append(items, vm.NewStr(s.V[last:]))
			return vm.NewList(items)
		})
	entries["split"] = vm.method("split", splitID)

	vm.bindModule("re", entries)
}

// ---- regex program ----

type reNode struct {
	kind     reKind
	ch       byte
	class    *[32]byte // bitmap for class kind
	children []*reNode // seq/alt/group
	sub      *reNode   // quantified child
	min, max int       // repeat bounds (max<0 = unbounded)
}

type reKind uint8

const (
	reChar reKind = iota
	reAny
	reClass
	reSeq
	reAlt
	reRepeat
	reBegin
	reEnd
)

type rePattern struct {
	root *reNode
}

// compileRegex parses pattern (cached per VM), emitting compile-cost
// events on a cache miss.
func (vm *VM) compileRegex(pattern string) *rePattern {
	if vm.regexCache == nil {
		vm.regexCache = map[string]*rePattern{}
	}
	if p, ok := vm.regexCache[pattern]; ok {
		vm.Eng.ALUn(core.Execute, 2) // cache hit probe
		return p
	}
	// Compilation cost: parser work proportional to pattern length.
	for i := 0; i < len(pattern); i++ {
		vm.Eng.ALUn(core.Execute, 4)
		vm.Eng.Store(core.Execute, mem_ioBuf+0x10000+uint64(i*16))
	}
	rp := &reParser{s: pattern}
	root := rp.alt()
	if rp.i != len(pattern) {
		Raise("ValueError", "unbalanced parenthesis in regex %q", pattern)
	}
	p := &rePattern{root: root}
	vm.regexCache[pattern] = p
	return p
}

type reParser struct {
	s string
	i int
}

func (p *reParser) alt() *reNode {
	first := p.seq()
	if p.i >= len(p.s) || p.s[p.i] != '|' {
		return first
	}
	alts := []*reNode{first}
	for p.i < len(p.s) && p.s[p.i] == '|' {
		p.i++
		alts = append(alts, p.seq())
	}
	return &reNode{kind: reAlt, children: alts}
}

func (p *reParser) seq() *reNode {
	var items []*reNode
	for p.i < len(p.s) && p.s[p.i] != '|' && p.s[p.i] != ')' {
		items = append(items, p.quant())
	}
	if len(items) == 1 {
		return items[0]
	}
	return &reNode{kind: reSeq, children: items}
}

func (p *reParser) quant() *reNode {
	atom := p.atom()
	for p.i < len(p.s) {
		switch p.s[p.i] {
		case '*':
			p.i++
			atom = &reNode{kind: reRepeat, sub: atom, min: 0, max: -1}
		case '+':
			p.i++
			atom = &reNode{kind: reRepeat, sub: atom, min: 1, max: -1}
		case '?':
			p.i++
			atom = &reNode{kind: reRepeat, sub: atom, min: 0, max: 1}
		case '{':
			j := strings.IndexByte(p.s[p.i:], '}')
			if j < 0 {
				Raise("ValueError", "unbalanced brace in regex")
			}
			body := p.s[p.i+1 : p.i+j]
			p.i += j + 1
			min, max := 0, -1
			if k := strings.IndexByte(body, ','); k >= 0 {
				min = atoiSafe(body[:k])
				if k+1 < len(body) {
					max = atoiSafe(body[k+1:])
				}
			} else {
				min = atoiSafe(body)
				max = min
			}
			atom = &reNode{kind: reRepeat, sub: atom, min: min, max: max}
		default:
			return atom
		}
	}
	return atom
}

func atoiSafe(s string) int {
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			Raise("ValueError", "bad repeat count in regex")
		}
		n = n*10 + int(s[i]-'0')
	}
	return n
}

func classBit(bm *[32]byte, c byte) { bm[c>>3] |= 1 << (c & 7) }

func classHas(bm *[32]byte, c byte) bool { return bm[c>>3]&(1<<(c&7)) != 0 }

func escapeClass(c byte) (*[32]byte, bool) {
	bm := new([32]byte)
	switch c {
	case 'd', 'D':
		for b := byte('0'); b <= '9'; b++ {
			classBit(bm, b)
		}
	case 'w', 'W':
		for b := byte('a'); b <= 'z'; b++ {
			classBit(bm, b)
		}
		for b := byte('A'); b <= 'Z'; b++ {
			classBit(bm, b)
		}
		for b := byte('0'); b <= '9'; b++ {
			classBit(bm, b)
		}
		classBit(bm, '_')
	case 's', 'S':
		for _, b := range []byte{' ', '\t', '\n', '\r', '\v', '\f'} {
			classBit(bm, b)
		}
	default:
		return nil, false
	}
	if c == 'D' || c == 'W' || c == 'S' {
		for i := range bm {
			bm[i] = ^bm[i]
		}
	}
	return bm, true
}

func (p *reParser) atom() *reNode {
	if p.i >= len(p.s) {
		Raise("ValueError", "truncated regex")
	}
	c := p.s[p.i]
	switch c {
	case '(':
		p.i++
		// Non-capturing prefix (?: is accepted and ignored.
		if strings.HasPrefix(p.s[p.i:], "?:") {
			p.i += 2
		}
		inner := p.alt()
		if p.i >= len(p.s) || p.s[p.i] != ')' {
			Raise("ValueError", "missing ) in regex")
		}
		p.i++
		return inner
	case '[':
		p.i++
		bm := new([32]byte)
		negate := false
		if p.i < len(p.s) && p.s[p.i] == '^' {
			negate = true
			p.i++
		}
		first := true
		for p.i < len(p.s) && (p.s[p.i] != ']' || first) {
			first = false
			lo := p.s[p.i]
			if lo == '\\' && p.i+1 < len(p.s) {
				p.i++
				if sub, ok := escapeClass(p.s[p.i]); ok {
					for k := range bm {
						bm[k] |= sub[k]
					}
					p.i++
					continue
				}
				lo = escapeChar(p.s[p.i])
			}
			p.i++
			if p.i+1 < len(p.s) && p.s[p.i] == '-' && p.s[p.i+1] != ']' {
				hi := p.s[p.i+1]
				p.i += 2
				for b := lo; b <= hi && b >= lo; b++ {
					classBit(bm, b)
					if b == 255 {
						break
					}
				}
				continue
			}
			classBit(bm, lo)
		}
		if p.i >= len(p.s) {
			Raise("ValueError", "missing ] in regex")
		}
		p.i++ // ]
		if negate {
			for i := range bm {
				bm[i] = ^bm[i]
			}
			// Never match newline-less sentinel beyond string.
		}
		return &reNode{kind: reClass, class: bm}
	case '.':
		p.i++
		return &reNode{kind: reAny}
	case '^':
		p.i++
		return &reNode{kind: reBegin}
	case '$':
		p.i++
		return &reNode{kind: reEnd}
	case '\\':
		p.i++
		if p.i >= len(p.s) {
			Raise("ValueError", "trailing backslash in regex")
		}
		e := p.s[p.i]
		p.i++
		if bm, ok := escapeClass(e); ok {
			return &reNode{kind: reClass, class: bm}
		}
		return &reNode{kind: reChar, ch: escapeChar(e)}
	case '*', '+', '?', '{':
		Raise("ValueError", "nothing to repeat in regex")
	}
	p.i++
	return &reNode{kind: reChar, ch: c}
}

func escapeChar(c byte) byte {
	switch c {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	}
	return c
}

// ---- matcher ----

type matcher struct {
	vm      *VM
	prog    *rePattern
	s       string
	addr    uint64
	steps   int
	emitted int
}

const reStepLimit = 2_000_000

func newMatcher(vm *VM, prog *rePattern, s *pyobj.Str) *matcher {
	return &matcher{vm: vm, prog: prog, s: s.V, addr: s.DataAddr}
}

// step emits the per-character comparison traffic (capped).
func (m *matcher) step(pos int) {
	m.steps++
	if m.steps > reStepLimit {
		Raise("RuntimeError", "regex backtracking limit exceeded")
	}
	if m.vm.Eng.Armed() && m.emitted < 1<<18 {
		m.emitted++
		m.vm.Eng.Load(core.Execute, m.addr+uint64(pos), false)
		m.vm.Eng.ALU(core.Execute, true)
		m.vm.Eng.Branch(core.Execute, false)
	}
}

// matchNode attempts node at pos, calling cont with the end position of
// each successful alternative until cont returns true.
func (m *matcher) matchNode(n *reNode, pos int, cont func(int) bool) bool {
	switch n.kind {
	case reChar:
		m.step(pos)
		if pos < len(m.s) && m.s[pos] == n.ch {
			return cont(pos + 1)
		}
		return false
	case reAny:
		m.step(pos)
		if pos < len(m.s) && m.s[pos] != '\n' {
			return cont(pos + 1)
		}
		return false
	case reClass:
		m.step(pos)
		if pos < len(m.s) && classHas(n.class, m.s[pos]) {
			return cont(pos + 1)
		}
		return false
	case reBegin:
		if pos == 0 {
			return cont(pos)
		}
		return false
	case reEnd:
		if pos == len(m.s) {
			return cont(pos)
		}
		return false
	case reSeq:
		return m.matchSeq(n.children, 0, pos, cont)
	case reAlt:
		for _, alt := range n.children {
			if m.matchNode(alt, pos, cont) {
				return true
			}
		}
		return false
	case reRepeat:
		return m.matchRepeat(n, pos, 0, cont)
	}
	return false
}

func (m *matcher) matchSeq(nodes []*reNode, idx, pos int, cont func(int) bool) bool {
	if idx == len(nodes) {
		return cont(pos)
	}
	return m.matchNode(nodes[idx], pos, func(next int) bool {
		return m.matchSeq(nodes, idx+1, next, cont)
	})
}

// matchRepeat implements greedy bounded/unbounded repetition with
// backtracking.
func (m *matcher) matchRepeat(n *reNode, pos, count int, cont func(int) bool) bool {
	if n.max >= 0 && count >= n.max {
		return cont(pos)
	}
	// Greedy: try one more copy first.
	matched := m.matchNode(n.sub, pos, func(next int) bool {
		if next == pos {
			// Zero-width match: stop expanding to avoid livelock.
			return count >= n.min && cont(next)
		}
		return m.matchRepeat(n, next, count+1, cont)
	})
	if matched {
		return true
	}
	if count >= n.min {
		return cont(pos)
	}
	return false
}

// matchAt anchors a match at start, returning the end of the leftmost
// greedy match.
func (m *matcher) matchAt(start int) (int, bool) {
	end := -1
	m.matchNode(m.prog.root, start, func(e int) bool {
		end = e
		return true
	})
	if end < 0 {
		return 0, false
	}
	return end, true
}

// search finds the leftmost match at or after from.
func (m *matcher) search(from int) (int, int, bool) {
	for start := from; start <= len(m.s); start++ {
		if end, ok := m.matchAt(start); ok {
			return start, end, true
		}
	}
	return 0, 0, false
}
