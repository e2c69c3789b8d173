package interp

import (
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/pyobj"
)

// registerPickleModule builds the pickle module: a textual serialization
// protocol over MiniPy objects (ints, floats, strings, bools, None,
// lists, tuples, dicts), modeled as C-extension code. The wire format is
// a simple tagged prefix encoding — the point is the memory and compute
// behaviour, not wire compatibility.
func (vm *VM) registerPickleModule() {
	entries := map[string]pyobj.Object{}

	dumpsID := vm.reg("pickle.dumps", 640, true, true,
		func(vm *VM, _ pyobj.Object, args []pyobj.Object) pyobj.Object {
			vm.argCheck("pickle.dumps", args, 1, 2)
			var sb strings.Builder
			vm.pickleEncode(&sb, args[0], 0)
			return vm.NewStr(sb.String())
		})
	entries["dumps"] = vm.method("dumps", dumpsID)

	loadsID := vm.reg("pickle.loads", 640, true, true,
		func(vm *VM, _ pyobj.Object, args []pyobj.Object) pyobj.Object {
			vm.argCheck("pickle.loads", args, 1, 1)
			s := vm.wantStr("pickle.loads", args[0])
			p := &pickleParser{vm: vm, s: s.V, dataAddr: s.DataAddr}
			v := p.value()
			vm.errCheck(p.i != len(p.s))
			if p.i != len(p.s) {
				Raise("ValueError", "trailing pickle data")
			}
			return v
		})
	entries["loads"] = vm.method("loads", loadsID)

	// HIGHEST_PROTOCOL constant for source compatibility.
	entries["HIGHEST_PROTOCOL"] = vm.smallInts[2-smallIntMin]

	vm.bindModule("pickle", entries)
	vm.bindModule("cPickle", entries)
}

// pickleEncode serializes o. Format: one tag byte, a length or value,
// ';' separators for containers.
func (vm *VM) pickleEncode(sb *strings.Builder, o pyobj.Object, depth int) {
	if depth > 128 {
		Raise("ValueError", "object too deeply nested to pickle")
	}
	e := vm.Eng
	e.Load(core.Execute, o.Hdr().Addr, false)
	e.ALUn(core.Execute, 3)
	switch v := o.(type) {
	case *pyobj.None:
		sb.WriteByte('N')
	case *pyobj.Bool:
		if v.V {
			sb.WriteString("T")
		} else {
			sb.WriteString("F")
		}
	case *pyobj.Int:
		e.Load(core.Execute, v.H.Addr+16, true)
		sb.WriteByte('I')
		sb.WriteString(strconv.FormatInt(v.V, 10))
		sb.WriteByte(';')
	case *pyobj.Float:
		e.Load(core.Execute, v.H.Addr+16, true)
		sb.WriteByte('D')
		sb.WriteString(strconv.FormatFloat(v.V, 'g', 17, 64))
		sb.WriteByte(';')
	case *pyobj.Str:
		vm.emitStrScan(v, len(v.V))
		sb.WriteByte('S')
		sb.WriteString(strconv.Itoa(len(v.V)))
		sb.WriteByte(':')
		sb.WriteString(v.V)
	case *pyobj.List:
		sb.WriteByte('L')
		sb.WriteString(strconv.Itoa(len(v.Items)))
		sb.WriteByte(':')
		for i, it := range v.Items {
			e.Load(core.Execute, v.ItemAddr(minInt(i, eventCap)), false)
			vm.pickleEncode(sb, it, depth+1)
		}
	case *pyobj.Tuple:
		sb.WriteByte('U')
		sb.WriteString(strconv.Itoa(len(v.Items)))
		sb.WriteByte(':')
		for i, it := range v.Items {
			e.Load(core.Execute, v.ItemAddr(minInt(i, eventCap)), false)
			vm.pickleEncode(sb, it, depth+1)
		}
	case *pyobj.Dict:
		sb.WriteByte('M')
		sb.WriteString(strconv.Itoa(v.Len()))
		sb.WriteByte(':')
		v.ForEach(func(k, val pyobj.Object) {
			e.Load(core.Execute, v.TableAddr, false)
			vm.pickleEncode(sb, k, depth+1)
			vm.pickleEncode(sb, val, depth+1)
		})
	default:
		Raise("TypeError", "cannot pickle '%s' object", pyobj.TypeName(o))
	}
}

type pickleParser struct {
	vm       *VM
	s        string
	i        int
	dataAddr uint64
}

func (p *pickleParser) step(n int) {
	n = p.vm.events(n, 64)
	for k := 0; k < n; k++ {
		p.vm.Eng.Load(core.Execute, p.dataAddr+uint64(p.i+k), false)
	}
	p.vm.Eng.ALU(core.Execute, true)
}

func (p *pickleParser) fail(msg string) {
	p.vm.errCheck(true)
	Raise("ValueError", "bad pickle: %s at %d", msg, p.i)
}

// readInt parses digits up to the delimiter.
func (p *pickleParser) readInt(delim byte) int64 {
	start := p.i
	for p.i < len(p.s) && p.s[p.i] != delim {
		p.i++
	}
	if p.i >= len(p.s) {
		p.fail("missing delimiter")
	}
	p.step(p.i - start)
	n, err := strconv.ParseInt(p.s[start:p.i], 10, 64)
	if err != nil {
		p.fail("bad integer")
	}
	p.i++ // delimiter
	return n
}

func (p *pickleParser) value() pyobj.Object {
	if p.i >= len(p.s) {
		p.fail("truncated")
	}
	tag := p.s[p.i]
	p.step(1)
	p.i++
	switch tag {
	case 'N':
		p.vm.Incref(p.vm.None)
		return p.vm.None
	case 'T':
		return p.vm.NewBool(true)
	case 'F':
		return p.vm.NewBool(false)
	case 'I':
		return p.vm.NewInt(p.readInt(';'))
	case 'D':
		start := p.i
		for p.i < len(p.s) && p.s[p.i] != ';' {
			p.i++
		}
		if p.i >= len(p.s) {
			p.fail("missing delimiter")
		}
		p.step(p.i - start)
		f, err := strconv.ParseFloat(p.s[start:p.i], 64)
		if err != nil {
			p.fail("bad float")
		}
		p.i++
		return p.vm.NewFloat(f)
	case 'S':
		n := p.readInt(':')
		if n < 0 || p.i+int(n) > len(p.s) {
			p.fail("bad string length")
		}
		v := p.s[p.i : p.i+int(n)]
		p.step(int(n))
		p.i += int(n)
		return p.vm.NewStr(v)
	case 'L', 'U':
		n := p.readInt(':')
		items := make([]pyobj.Object, 0, n)
		for k := int64(0); k < n; k++ {
			items = append(items, p.value())
		}
		if tag == 'L' {
			return p.vm.NewList(items)
		}
		return p.vm.NewTuple(items)
	case 'M':
		n := p.readInt(':')
		d := p.vm.NewDict()
		for k := int64(0); k < n; k++ {
			key := p.value()
			val := p.value()
			p.vm.DictSet(d, key, val, core.Execute)
			p.vm.Decref(key)
			p.vm.Decref(val)
		}
		return d
	}
	p.fail("unknown tag")
	return nil
}
