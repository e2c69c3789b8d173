package interp

import (
	"math"

	"repro/internal/core"
	"repro/internal/pycode"
	"repro/internal/pyobj"
)

// BinKind identifies a binary operation semantic.
type BinKind uint8

// Binary operation kinds.
const (
	BinAdd BinKind = iota
	BinSub
	BinMul
	BinDiv
	BinFloorDiv
	BinMod
	BinPow
	BinLShift
	BinRShift
	BinAnd
	BinOr
	BinXor
)

var binNames = [...]string{"+", "-", "*", "/", "//", "%", "**", "<<", ">>", "&", "|", "^"}

// String returns the operator's source form.
func (k BinKind) String() string { return binNames[k] }

// eventCap bounds per-operation event loops (copies, scans) so a single
// huge container operation cannot flood the simulator; the cache effect of
// a long streaming copy saturates well before the cap.
const eventCap = 1024

// events is the trip count of an event-only loop modeling n units of work:
// zero on an unarmed engine, so the loop and its simulated-address
// arithmetic vanish with the events; otherwise n bounded by limit.
func (vm *VM) events(n, limit int) int {
	if !vm.Eng.Armed() {
		return 0
	}
	if n > limit {
		return limit
	}
	return n
}

// BinaryOp evaluates a <op> b with CPython's cost structure: an inline
// fast path for int add/sub (as ceval.c fast-cases), and a C call through
// the number-protocol function pointers for everything else.
func (vm *VM) BinaryOp(kind BinKind, a, b pyobj.Object) pyobj.Object {
	e := vm.Eng
	// Type checks: load both type pointers and compare.
	e.Load(core.TypeCheck, a.Hdr().Addr, false)
	e.Load(core.TypeCheck, b.Hdr().Addr, false)
	e.ALU(core.TypeCheck, true)

	ai, aIsInt := a.(*pyobj.Int)
	bi, bIsInt := b.(*pyobj.Int)
	fast := aIsInt && bIsInt && (kind == BinAdd || kind == BinSub)
	e.Branch(core.TypeCheck, fast)
	if fast {
		// Unbox, compute, overflow-check, box.
		e.Load(core.Boxing, ai.H.Addr+16, true)
		e.Load(core.Boxing, bi.H.Addr+16, true)
		var v int64
		if kind == BinAdd {
			v = ai.V + bi.V
		} else {
			v = ai.V - bi.V
		}
		e.ALU(core.Execute, true)
		overflow := (kind == BinAdd && ((ai.V > 0 && bi.V > 0 && v < 0) || (ai.V < 0 && bi.V < 0 && v >= 0))) ||
			(kind == BinSub && ((ai.V > 0 && bi.V < 0 && v < 0) || (ai.V < 0 && bi.V > 0 && v >= 0)))
		vm.errCheck(overflow)
		if overflow {
			Raise("OverflowError", "integer overflow in %s", kind)
		}
		return vm.NewInt(v)
	}

	// Slow path: resolve the type's number slot and call it.
	e.Load(core.FunctionResolution, a.PyType().SlotAddr(slotForBin(kind)), true)
	e.CCall(core.CFunctionCall, vm.hp.binOpSlow, indirectCCall)
	defer e.CReturn(core.CFunctionCall, indirectCCall)

	switch {
	case aIsInt && bIsInt:
		return vm.intBinOp(kind, ai.V, bi.V)
	default:
		if af, aok := pyobj.AsFloat(a); aok {
			if bf, bok := pyobj.AsFloat(b); bok {
				_, aInt := pyobj.AsInt(a)
				_, bInt := pyobj.AsInt(b)
				if aInt && bInt {
					ai2, _ := pyobj.AsInt(a)
					bi2, _ := pyobj.AsInt(b)
					return vm.intBinOp(kind, ai2, bi2)
				}
				return vm.floatBinOp(kind, af, bf)
			}
		}
	}
	if as, ok := a.(*pyobj.Str); ok {
		return vm.strBinOp(kind, as, b)
	}
	if al, ok := a.(*pyobj.List); ok {
		return vm.listBinOp(kind, al, b)
	}
	if at, ok := a.(*pyobj.Tuple); ok {
		return vm.tupleBinOp(kind, at, b)
	}
	Raise("TypeError", "unsupported operand type(s) for %s: '%s' and '%s'",
		kind, pyobj.TypeName(a), pyobj.TypeName(b))
	return nil
}

func slotForBin(kind BinKind) int {
	switch kind {
	case BinAdd:
		return pyobj.SlotAdd
	case BinSub:
		return pyobj.SlotSub
	case BinMul:
		return pyobj.SlotMul
	case BinDiv, BinFloorDiv:
		return pyobj.SlotDiv
	case BinMod:
		return pyobj.SlotMod
	case BinPow:
		return pyobj.SlotPow
	}
	return pyobj.SlotAdd
}

// intBinOp performs integer arithmetic inside the number-protocol C call:
// unbox loads, the ALU work, error checks, and the boxing of the result.
func (vm *VM) intBinOp(kind BinKind, a, b int64) pyobj.Object {
	e := vm.Eng
	e.Load(core.Boxing, 0, true)
	e.Load(core.Boxing, 0, true)
	switch kind {
	case BinAdd, BinSub:
		e.ALU(core.Execute, true)
		if kind == BinAdd {
			return vm.checkedInt(a+b, (a > 0 && b > 0 && a+b < 0) || (a < 0 && b < 0 && a+b >= 0))
		}
		return vm.checkedInt(a-b, (a > 0 && b < 0 && a-b < 0) || (a < 0 && b > 0 && a-b >= 0))
	case BinMul:
		e.Mul(core.Execute, true)
		v := a * b
		overflow := a != 0 && (v/a != b)
		return vm.checkedInt(v, overflow)
	case BinDiv, BinFloorDiv:
		vm.errCheck(b == 0)
		if b == 0 {
			Raise("ZeroDivisionError", "integer division or modulo by zero")
		}
		e.Div(core.Execute, true)
		q := a / b
		if (a%b != 0) && ((a < 0) != (b < 0)) {
			q--
		}
		e.ALU(core.Execute, true) // floor adjustment
		return vm.NewInt(q)
	case BinMod:
		vm.errCheck(b == 0)
		if b == 0 {
			Raise("ZeroDivisionError", "integer division or modulo by zero")
		}
		e.Div(core.Execute, true)
		r := a % b
		if r != 0 && ((r < 0) != (b < 0)) {
			r += b
		}
		e.ALU(core.Execute, true)
		return vm.NewInt(r)
	case BinPow:
		if b < 0 {
			return vm.floatBinOp(BinPow, float64(a), float64(b))
		}
		// Square-and-multiply: one Mul event per step.
		result := int64(1)
		base := a
		exp := b
		for exp > 0 {
			e.Mul(core.Execute, true)
			if exp&1 == 1 {
				prev := result
				result *= base
				if base != 0 && result/base != prev {
					vm.errCheck(true)
					Raise("OverflowError", "integer overflow in **")
				}
			}
			nb := base * base
			if base != 0 && exp > 1 && nb/base != base {
				vm.errCheck(true)
				Raise("OverflowError", "integer overflow in **")
			}
			base = nb
			exp >>= 1
		}
		vm.errCheck(false)
		return vm.NewInt(result)
	case BinLShift:
		vm.errCheck(b < 0)
		if b < 0 {
			Raise("ValueError", "negative shift count")
		}
		if b >= 63 {
			vm.errCheck(true)
			Raise("OverflowError", "shift count too large")
		}
		e.ALU(core.Execute, true)
		v := a << uint(b)
		return vm.checkedInt(v, v>>uint(b) != a)
	case BinRShift:
		vm.errCheck(b < 0)
		if b < 0 {
			Raise("ValueError", "negative shift count")
		}
		e.ALU(core.Execute, true)
		if b >= 63 {
			if a < 0 {
				return vm.NewInt(-1)
			}
			return vm.NewInt(0)
		}
		return vm.NewInt(a >> uint(b))
	case BinAnd:
		e.ALU(core.Execute, true)
		return vm.NewInt(a & b)
	case BinOr:
		e.ALU(core.Execute, true)
		return vm.NewInt(a | b)
	case BinXor:
		e.ALU(core.Execute, true)
		return vm.NewInt(a ^ b)
	}
	panic("interp: unhandled int binop")
}

func (vm *VM) checkedInt(v int64, overflow bool) pyobj.Object {
	vm.errCheck(overflow)
	if overflow {
		Raise("OverflowError", "integer overflow")
	}
	return vm.NewInt(v)
}

// floatBinOp performs float arithmetic: unbox, FPU work, error checks,
// boxed result (floats have no small-value cache, so every result
// allocates).
func (vm *VM) floatBinOp(kind BinKind, a, b float64) pyobj.Object {
	e := vm.Eng
	e.Load(core.Boxing, 0, true)
	e.Load(core.Boxing, 0, true)
	var v float64
	switch kind {
	case BinAdd:
		e.FPU(core.Execute, true)
		v = a + b
	case BinSub:
		e.FPU(core.Execute, true)
		v = a - b
	case BinMul:
		e.FPU(core.Execute, true)
		v = a * b
	case BinDiv:
		vm.errCheck(b == 0)
		if b == 0 {
			Raise("ZeroDivisionError", "float division by zero")
		}
		e.FDiv(core.Execute, true)
		v = a / b
	case BinFloorDiv:
		vm.errCheck(b == 0)
		if b == 0 {
			Raise("ZeroDivisionError", "float division by zero")
		}
		e.FDiv(core.Execute, true)
		e.FPU(core.Execute, true)
		v = math.Floor(a / b)
	case BinMod:
		vm.errCheck(b == 0)
		if b == 0 {
			Raise("ZeroDivisionError", "float modulo")
		}
		e.FDiv(core.Execute, true)
		v = math.Mod(a, b)
		if v != 0 && (v < 0) != (b < 0) {
			v += b
		}
	case BinPow:
		e.FDiv(core.Execute, true) // pow latency class
		v = math.Pow(a, b)
	default:
		Raise("TypeError", "unsupported operand type(s) for %s: 'float'", kind)
	}
	vm.errCheck(false) // NaN/inf check
	return vm.NewFloat(v)
}

// strBinOp implements str + str, str * int, and str % args formatting.
func (vm *VM) strBinOp(kind BinKind, a *pyobj.Str, b pyobj.Object) pyobj.Object {
	switch kind {
	case BinAdd:
		bs, ok := b.(*pyobj.Str)
		if !ok {
			Raise("TypeError", "cannot concatenate 'str' and '%s'", pyobj.TypeName(b))
		}
		vm.emitStrScan(a, len(a.V))
		vm.emitStrScan(bs, len(bs.V))
		return vm.NewStr(a.V + bs.V)
	case BinMul:
		n, ok := pyobj.AsInt(b)
		if !ok {
			Raise("TypeError", "can't multiply str by non-int")
		}
		if n < 0 {
			n = 0
		}
		if int(n)*len(a.V) > 64<<20 {
			Raise("MemoryError", "repeated string too large")
		}
		out := make([]byte, 0, int(n)*len(a.V))
		for i := int64(0); i < n; i++ {
			out = append(out, a.V...)
		}
		vm.emitStrScan(a, len(out))
		return vm.NewStr(string(out))
	case BinMod:
		return vm.strFormat(a, b)
	}
	Raise("TypeError", "unsupported operand type(s) for %s: 'str'", kind)
	return nil
}

// emitStrScan emits the load traffic of scanning/copying n bytes of a
// string (word granularity, capped).
func (vm *VM) emitStrScan(s *pyobj.Str, n int) {
	words := vm.events((n+7)/8, eventCap)
	for i := 0; i < words; i++ {
		vm.Eng.Load(core.Execute, s.DataAddr+uint64(i*8), false)
	}
}

// listBinOp implements list + list and list * int.
func (vm *VM) listBinOp(kind BinKind, a *pyobj.List, b pyobj.Object) pyobj.Object {
	switch kind {
	case BinAdd:
		bl, ok := b.(*pyobj.List)
		if !ok {
			Raise("TypeError", "can only concatenate list to list")
		}
		items := make([]pyobj.Object, 0, len(a.Items)+len(bl.Items))
		items = append(items, a.Items...)
		items = append(items, bl.Items...)
		vm.emitSeqCopy(len(items))
		for _, it := range items {
			vm.Incref(it)
		}
		return vm.NewList(items)
	case BinMul:
		n, ok := pyobj.AsInt(b)
		if !ok {
			Raise("TypeError", "can't multiply list by non-int")
		}
		if n < 0 {
			n = 0
		}
		items := make([]pyobj.Object, 0, int(n)*len(a.Items))
		for i := int64(0); i < n; i++ {
			items = append(items, a.Items...)
		}
		vm.emitSeqCopy(len(items))
		for _, it := range items {
			vm.Incref(it)
		}
		return vm.NewList(items)
	}
	Raise("TypeError", "unsupported operand type(s) for %s: 'list'", kind)
	return nil
}

// tupleBinOp implements tuple + tuple and tuple * int.
func (vm *VM) tupleBinOp(kind BinKind, a *pyobj.Tuple, b pyobj.Object) pyobj.Object {
	switch kind {
	case BinAdd:
		bt, ok := b.(*pyobj.Tuple)
		if !ok {
			Raise("TypeError", "can only concatenate tuple to tuple")
		}
		items := make([]pyobj.Object, 0, len(a.Items)+len(bt.Items))
		items = append(items, a.Items...)
		items = append(items, bt.Items...)
		vm.emitSeqCopy(len(items))
		for _, it := range items {
			vm.Incref(it)
		}
		return vm.NewTuple(items)
	case BinMul:
		n, ok := pyobj.AsInt(b)
		if !ok {
			Raise("TypeError", "can't multiply tuple by non-int")
		}
		if n < 0 {
			n = 0
		}
		items := make([]pyobj.Object, 0, int(n)*len(a.Items))
		for i := int64(0); i < n; i++ {
			items = append(items, a.Items...)
		}
		vm.emitSeqCopy(len(items))
		for _, it := range items {
			vm.Incref(it)
		}
		return vm.NewTuple(items)
	}
	Raise("TypeError", "unsupported operand type(s) for %s: 'tuple'", kind)
	return nil
}

// emitSeqCopy emits capped pointer-copy traffic for sequence operations.
func (vm *VM) emitSeqCopy(n int) {
	n = vm.events(n, eventCap)
	for i := 0; i < n; i++ {
		vm.Eng.ALU(core.Execute, false)
	}
}

// unaryNeg negates a number.
func (vm *VM) unaryNeg(v pyobj.Object) pyobj.Object {
	vm.Eng.Load(core.TypeCheck, v.Hdr().Addr, false)
	switch n := v.(type) {
	case *pyobj.Int:
		vm.Eng.Branch(core.TypeCheck, true)
		vm.Eng.Load(core.Boxing, n.H.Addr+16, true)
		vm.Eng.ALU(core.Execute, true)
		vm.errCheck(n.V == math.MinInt64)
		return vm.NewInt(-n.V)
	case *pyobj.Float:
		vm.Eng.Branch(core.TypeCheck, true)
		vm.Eng.Load(core.Boxing, n.H.Addr+16, true)
		vm.Eng.FPU(core.Execute, true)
		return vm.NewFloat(-n.V)
	case *pyobj.Bool:
		vm.Eng.Branch(core.TypeCheck, true)
		if n.V {
			return vm.NewInt(-1)
		}
		return vm.NewInt(0)
	}
	Raise("TypeError", "bad operand type for unary -: '%s'", pyobj.TypeName(v))
	return nil
}

// CompareOp evaluates a <cmp> b. Int comparisons are fast-pathed as in
// ceval.c; everything else pays the rich-comparison C call.
func (vm *VM) CompareOp(op pycode.CmpOp, a, b pyobj.Object) pyobj.Object {
	e := vm.Eng
	// The operator switch: rich control flow.
	e.ALU(core.RichControlFlow, false)
	e.Branch(core.RichControlFlow, true)

	switch op {
	case pycode.CmpIs:
		e.ALU(core.Execute, false)
		return vm.NewBool(a == b)
	case pycode.CmpIsNot:
		e.ALU(core.Execute, false)
		return vm.NewBool(a != b)
	case pycode.CmpIn, pycode.CmpNotIn:
		r := vm.contains(b, a)
		if op == pycode.CmpNotIn {
			r = !r
		}
		return vm.NewBool(r)
	}

	e.Load(core.TypeCheck, a.Hdr().Addr, false)
	e.Load(core.TypeCheck, b.Hdr().Addr, false)
	e.ALU(core.TypeCheck, true)
	ai, aIsInt := a.(*pyobj.Int)
	bi, bIsInt := b.(*pyobj.Int)
	fast := aIsInt && bIsInt
	e.Branch(core.TypeCheck, fast)
	if fast {
		e.Load(core.Boxing, ai.H.Addr+16, true)
		e.Load(core.Boxing, bi.H.Addr+16, true)
		e.ALU(core.Execute, true)
		return vm.NewBool(cmpResult(op, compareInt(ai.V, bi.V)))
	}

	// Rich comparison through tp_compare.
	e.Load(core.FunctionResolution, a.PyType().SlotAddr(pyobj.SlotCompare), true)
	e.CCall(core.CFunctionCall, vm.hp.cmpSlow, indirectCCall)
	defer e.CReturn(core.CFunctionCall, indirectCCall)

	if op == pycode.CmpEQ || op == pycode.CmpNE {
		eq := vm.equalWithEvents(a, b)
		return vm.NewBool(eq == (op == pycode.CmpEQ))
	}
	c, ok := vm.orderWithEvents(a, b)
	vm.errCheck(!ok)
	if !ok {
		Raise("TypeError", "unorderable types: %s %s %s", pyobj.TypeName(a), op, pyobj.TypeName(b))
	}
	return vm.NewBool(cmpResult(op, c))
}

func compareInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpResult(op pycode.CmpOp, c int) bool {
	switch op {
	case pycode.CmpLT:
		return c < 0
	case pycode.CmpLE:
		return c <= 0
	case pycode.CmpEQ:
		return c == 0
	case pycode.CmpNE:
		return c != 0
	case pycode.CmpGT:
		return c > 0
	case pycode.CmpGE:
		return c >= 0
	}
	return false
}

// equalWithEvents computes Python equality, emitting comparison traffic.
func (vm *VM) equalWithEvents(a, b pyobj.Object) bool {
	switch av := a.(type) {
	case *pyobj.Str:
		if bv, ok := b.(*pyobj.Str); ok {
			n := len(av.V)
			if len(bv.V) < n {
				n = len(bv.V)
			}
			vm.emitStrScan(av, n)
			return av.V == bv.V
		}
		return false
	case *pyobj.Float, *pyobj.Int, *pyobj.Bool:
		vm.Eng.FPU(core.Execute, true)
		return pyobj.Equal(a, b)
	case *pyobj.Tuple:
		vm.emitSeqCopy(len(av.Items))
		return pyobj.Equal(a, b)
	case *pyobj.List:
		vm.emitSeqCopy(len(av.Items))
		return pyobj.Equal(a, b)
	case *pyobj.None:
		return pyobj.Equal(a, b)
	}
	return a == b
}

// orderWithEvents computes ordering, emitting comparison traffic.
func (vm *VM) orderWithEvents(a, b pyobj.Object) (int, bool) {
	if as, ok := a.(*pyobj.Str); ok {
		if bs, ok := b.(*pyobj.Str); ok {
			n := len(as.V)
			if len(bs.V) < n {
				n = len(bs.V)
			}
			vm.emitStrScan(as, n)
			_ = bs
		}
	}
	if af, ok := pyobj.AsFloat(a); ok {
		if bf, ok := pyobj.AsFloat(b); ok {
			vm.Eng.FPU(core.Execute, true)
			_ = af
			_ = bf
		}
	}
	return pyobj.Compare(a, b)
}

// contains implements `needle in container`.
func (vm *VM) contains(container, needle pyobj.Object) bool {
	e := vm.Eng
	e.Load(core.TypeCheck, container.Hdr().Addr, false)
	e.Load(core.FunctionResolution, container.PyType().SlotAddr(pyobj.SlotContains), true)
	e.CCall(core.CFunctionCall, vm.hp.cmpSlow, indirectCCall)
	defer e.CReturn(core.CFunctionCall, indirectCCall)

	switch c := container.(type) {
	case *pyobj.Dict:
		res, found := c.Contains(needle)
		if res.Probes == 0 {
			if _, ok := pyobj.EncodeKey(needle); !ok {
				Raise("TypeError", "unhashable type: '%s'", pyobj.TypeName(needle))
			}
		}
		vm.dictProbeEvents(c, res, 0, core.Execute)
		return found
	case *pyobj.List:
		for i, it := range c.Items {
			if i < eventCap {
				e.Load(core.Execute, c.ItemAddr(i), false)
				e.ALU(core.Execute, true)
				e.Branch(core.Execute, false)
			}
			if pyobj.Equal(it, needle) {
				return true
			}
		}
		return false
	case *pyobj.Tuple:
		for i, it := range c.Items {
			if i < eventCap {
				e.Load(core.Execute, c.ItemAddr(i), false)
				e.ALU(core.Execute, true)
			}
			if pyobj.Equal(it, needle) {
				return true
			}
		}
		return false
	case *pyobj.Str:
		ns, ok := needle.(*pyobj.Str)
		if !ok {
			Raise("TypeError", "'in <string>' requires string as left operand")
		}
		vm.emitStrScan(c, len(c.V))
		return containsStr(c.V, ns.V)
	case *pyobj.Range:
		n, ok := pyobj.AsInt(needle)
		if !ok {
			return false
		}
		e.ALUn(core.Execute, 2)
		if c.Step > 0 {
			return n >= c.Start && n < c.Stop && (n-c.Start)%c.Step == 0
		}
		return n <= c.Start && n > c.Stop && (c.Start-n)%(-c.Step) == 0
	}
	Raise("TypeError", "argument of type '%s' is not iterable", pyobj.TypeName(container))
	return false
}

func containsStr(haystack, needle string) bool {
	if len(needle) == 0 {
		return true
	}
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return true
		}
	}
	return false
}
