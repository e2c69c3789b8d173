package interp

import (
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/pyobj"
)

// registerJSONModule builds the json module: a real encoder/decoder over
// MiniPy objects, modeled as C-extension code (all events carry the CLib
// flag while it runs). The pickle/json family of benchmarks spends most of
// its time here, as the paper's C-library measurements show.
func (vm *VM) registerJSONModule() {
	entries := map[string]pyobj.Object{}

	dumpsID := vm.reg("json.dumps", 512, true, true,
		func(vm *VM, _ pyobj.Object, args []pyobj.Object) pyobj.Object {
			vm.argCheck("json.dumps", args, 1, 1)
			var sb strings.Builder
			vm.jsonEncode(&sb, args[0], 0)
			return vm.NewStr(sb.String())
		})
	entries["dumps"] = vm.method("dumps", dumpsID)

	loadsID := vm.reg("json.loads", 768, true, true,
		func(vm *VM, _ pyobj.Object, args []pyobj.Object) pyobj.Object {
			vm.argCheck("json.loads", args, 1, 1)
			s := vm.wantStr("json.loads", args[0])
			p := &jsonParser{vm: vm, s: s.V, dataAddr: s.DataAddr}
			v := p.value()
			p.ws()
			vm.errCheck(p.i != len(p.s))
			if p.i != len(p.s) {
				Raise("ValueError", "extra data at position %d", p.i)
			}
			return v
		})
	entries["loads"] = vm.method("loads", loadsID)

	vm.bindModule("json", entries)
}

// jsonEncode walks the object graph emitting per-node C-library work.
func (vm *VM) jsonEncode(sb *strings.Builder, o pyobj.Object, depth int) {
	if depth > 64 {
		Raise("ValueError", "object too deeply nested")
	}
	e := vm.Eng
	e.Load(core.Execute, o.Hdr().Addr, false)
	e.ALUn(core.Execute, 2)
	switch v := o.(type) {
	case *pyobj.None:
		sb.WriteString("null")
	case *pyobj.Bool:
		if v.V {
			sb.WriteString("true")
		} else {
			sb.WriteString("false")
		}
	case *pyobj.Int:
		e.Load(core.Execute, v.H.Addr+16, true)
		sb.WriteString(strconv.FormatInt(v.V, 10))
	case *pyobj.Float:
		e.Load(core.Execute, v.H.Addr+16, true)
		sb.WriteString(strconv.FormatFloat(v.V, 'g', -1, 64))
	case *pyobj.Str:
		vm.emitStrScan(v, len(v.V))
		sb.WriteByte('"')
		for i := 0; i < len(v.V); i++ {
			c := v.V[i]
			switch c {
			case '"':
				sb.WriteString(`\"`)
			case '\\':
				sb.WriteString(`\\`)
			case '\n':
				sb.WriteString(`\n`)
			case '\t':
				sb.WriteString(`\t`)
			case '\r':
				sb.WriteString(`\r`)
			default:
				sb.WriteByte(c)
			}
		}
		sb.WriteByte('"')
	case *pyobj.List:
		sb.WriteByte('[')
		for i, it := range v.Items {
			if i > 0 {
				sb.WriteByte(',')
			}
			e.Load(core.Execute, v.ItemAddr(minInt(i, eventCap)), false)
			vm.jsonEncode(sb, it, depth+1)
		}
		sb.WriteByte(']')
	case *pyobj.Tuple:
		sb.WriteByte('[')
		for i, it := range v.Items {
			if i > 0 {
				sb.WriteByte(',')
			}
			e.Load(core.Execute, v.ItemAddr(minInt(i, eventCap)), false)
			vm.jsonEncode(sb, it, depth+1)
		}
		sb.WriteByte(']')
	case *pyobj.Dict:
		sb.WriteByte('{')
		first := true
		v.ForEach(func(k, val pyobj.Object) {
			ks, ok := k.(*pyobj.Str)
			if !ok {
				Raise("TypeError", "json keys must be strings, got %s", pyobj.TypeName(k))
			}
			if !first {
				sb.WriteByte(',')
			}
			first = false
			e.Load(core.Execute, v.TableAddr, false)
			vm.jsonEncode(sb, ks, depth+1)
			sb.WriteByte(':')
			vm.jsonEncode(sb, val, depth+1)
		})
		sb.WriteByte('}')
	default:
		Raise("TypeError", "%s is not JSON serializable", pyobj.TypeName(o))
	}
}

type jsonParser struct {
	vm       *VM
	s        string
	i        int
	dataAddr uint64
}

// step emits the per-character scan traffic of the C parser.
func (p *jsonParser) step(n int) {
	n = p.vm.events(n, 64)
	for k := 0; k < n; k++ {
		p.vm.Eng.Load(core.Execute, p.dataAddr+uint64(p.i+k), false)
	}
	p.vm.Eng.ALU(core.Execute, true)
}

func (p *jsonParser) ws() {
	for p.i < len(p.s) && (p.s[p.i] == ' ' || p.s[p.i] == '\t' || p.s[p.i] == '\n' || p.s[p.i] == '\r') {
		p.i++
	}
}

func (p *jsonParser) fail(msg string) {
	p.vm.errCheck(true)
	Raise("ValueError", "%s at position %d", msg, p.i)
}

func (p *jsonParser) value() pyobj.Object {
	p.ws()
	if p.i >= len(p.s) {
		p.fail("unexpected end of JSON")
	}
	p.step(1)
	switch c := p.s[p.i]; {
	case c == '{':
		return p.object()
	case c == '[':
		return p.array()
	case c == '"':
		return p.vm.NewStr(p.parseString())
	case c == 't':
		p.expect("true")
		return p.vm.NewBool(true)
	case c == 'f':
		p.expect("false")
		return p.vm.NewBool(false)
	case c == 'n':
		p.expect("null")
		p.vm.Incref(p.vm.None)
		return p.vm.None
	default:
		return p.number()
	}
}

func (p *jsonParser) expect(word string) {
	if !strings.HasPrefix(p.s[p.i:], word) {
		p.fail("invalid literal")
	}
	p.step(len(word))
	p.i += len(word)
}

func (p *jsonParser) parseString() string {
	// assumes s[i] == '"'
	p.i++
	var sb strings.Builder
	for p.i < len(p.s) {
		c := p.s[p.i]
		p.step(1)
		if c == '"' {
			p.i++
			return sb.String()
		}
		if c == '\\' {
			p.i++
			if p.i >= len(p.s) {
				break
			}
			switch p.s[p.i] {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case 'r':
				sb.WriteByte('\r')
			case '"', '\\', '/':
				sb.WriteByte(p.s[p.i])
			case 'u':
				if p.i+4 < len(p.s) {
					n, err := strconv.ParseUint(p.s[p.i+1:p.i+5], 16, 32)
					if err == nil && n < 256 {
						sb.WriteByte(byte(n))
					} else {
						sb.WriteByte('?')
					}
					p.i += 4
				}
			default:
				sb.WriteByte(p.s[p.i])
			}
			p.i++
			continue
		}
		sb.WriteByte(c)
		p.i++
	}
	p.fail("unterminated string")
	return ""
}

func (p *jsonParser) number() pyobj.Object {
	start := p.i
	for p.i < len(p.s) && strings.IndexByte("+-0123456789.eE", p.s[p.i]) >= 0 {
		p.i++
	}
	if start == p.i {
		p.fail("invalid value")
	}
	p.step(p.i - start)
	text := p.s[start:p.i]
	if !strings.ContainsAny(text, ".eE") {
		n, err := strconv.ParseInt(text, 10, 64)
		if err == nil {
			return p.vm.NewInt(n)
		}
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		p.fail("invalid number")
	}
	return p.vm.NewFloat(f)
}

func (p *jsonParser) array() pyobj.Object {
	p.i++ // [
	var items []pyobj.Object
	p.ws()
	if p.i < len(p.s) && p.s[p.i] == ']' {
		p.i++
		return p.vm.NewList(items)
	}
	for {
		items = append(items, p.value())
		p.ws()
		if p.i >= len(p.s) {
			p.fail("unterminated array")
		}
		if p.s[p.i] == ',' {
			p.i++
			continue
		}
		if p.s[p.i] == ']' {
			p.i++
			return p.vm.NewList(items)
		}
		p.fail("expected ',' or ']'")
	}
}

func (p *jsonParser) object() pyobj.Object {
	p.i++ // {
	d := p.vm.NewDict()
	p.ws()
	if p.i < len(p.s) && p.s[p.i] == '}' {
		p.i++
		return d
	}
	for {
		p.ws()
		if p.i >= len(p.s) || p.s[p.i] != '"' {
			p.fail("expected object key")
		}
		key := p.vm.NewStr(p.parseString())
		p.ws()
		if p.i >= len(p.s) || p.s[p.i] != ':' {
			p.fail("expected ':'")
		}
		p.i++
		val := p.value()
		p.vm.DictSet(d, key, val, core.Execute)
		p.vm.Decref(key)
		p.vm.Decref(val)
		p.ws()
		if p.i >= len(p.s) {
			p.fail("unterminated object")
		}
		if p.s[p.i] == ',' {
			p.i++
			continue
		}
		if p.s[p.i] == '}' {
			p.i++
			return d
		}
		p.fail("expected ',' or '}'")
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
