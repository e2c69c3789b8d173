package jit

import (
	"math"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/interp"
	"repro/internal/pycode"
	"repro/internal/pyobj"
)

// rval is a virtual register's runtime value: boxed object and/or unboxed
// scalar.
type rval struct {
	obj  pyobj.Object
	i    int64
	f    float64
	kind symKind
}

// executor runs compiled traces.
type executor struct {
	j    *JIT
	regs []rval
}

// objOf returns the boxed object for register r, boxing unboxed
// loop-carried scalars on demand at residual boundaries (PyPy's reboxing
// at escape points). The boxed result is cached back into the register.
func (x *executor) objOf(r Reg) pyobj.Object {
	v := &x.regs[r]
	if v.obj != nil {
		return v.obj
	}
	v.obj = x.box(*v)
	return v.obj
}

// box materializes a register as a heap object, paying allocation.
func (x *executor) box(v rval) pyobj.Object {
	switch v.kind {
	case kObj:
		return v.obj
	case kInt:
		return x.j.vm.NewInt(v.i)
	case kFloat:
		return x.j.vm.NewFloat(v.f)
	default:
		return x.j.vm.NewBool(v.i != 0)
	}
}

// run executes trace t against frame f until a guard exits, leaving the
// interpreter state reconstructed. It returns true (the frame advanced).
func (x *executor) run(f *pyobj.Frame, t *Trace) bool {
	vm := x.j.vm
	e := vm.Eng

	// Residual calls can re-enter compiled code (a callee's own hot
	// loop), so each activation gets its own register file; the field is
	// saved and restored around the activation.
	savedRegs := x.regs
	myRegs := make([]rval, t.NumRegs)
	x.regs = myRegs
	defer func() { x.regs = savedRegs }()

	// Trace registers are GC roots while compiled code runs; outer
	// activations stay rooted through the chained previous root set.
	prevRoots := vm.ExtraRoots
	vm.ExtraRoots = func(visit func(pyobj.Object)) {
		if prevRoots != nil {
			prevRoots(visit)
		}
		for i := range myRegs {
			if myRegs[i].obj != nil {
				visit(myRegs[i].obj)
			}
		}
	}
	defer func() { vm.ExtraRoots = prevRoots }()

	// Entry: spill the frame's value stack into the entry registers.
	prevPhase := e.SetPhase(core.PhaseJITCode)
	defer e.SetPhase(prevPhase)

	// An error mid-trace — a residual operation raising, an allocation
	// hitting the heap limit, the step budget tripping — must not leave
	// the frame in trace-register limbo: deoptimize to the loop header,
	// then let the error keep unwinding to the interpreter. Registered
	// last so it runs first, while this activation's register file is
	// still installed. Reconstruction runs under heap grace so boxing the
	// exit state can never itself re-fault, and counts as a checked exit
	// to preserve the Deopts <= GuardChecks invariant.
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, ok := r.(*interp.PyError); ok {
			x.j.Stats.GuardChecks++
			x.j.Stats.ErrorDeopts++
			vm.Heap.BeginGrace()
			x.deopt(f, t, t.Close)
			vm.Heap.EndGrace()
		}
		panic(r)
	}()

	e.Call(core.Dispatch, t.BaseAddr)
	for i, rg := range t.Entry.Stack {
		e.Load(core.Stack, f.StackAddr(i), false)
		x.regs[rg] = rval{obj: f.Stack[i], kind: kObj}
	}

	first := true
	for {
		for i := range t.Ops {
			op := &t.Ops[i]
			if op.Once && !first {
				continue
			}
			e.At(op.PC)
			if !x.execOp(f, t, op) {
				e.Ret(core.Dispatch)
				return true
			}
		}
		first = false
		t.Executions++
		x.j.Stats.CompiledIters++
		vm.CountJITIteration(len(t.Ops))
		if x.j.cfg.Paranoid {
			x.j.Stats.GuardChecks++ // paranoid exit counts as a checked exit
			x.deopt(f, t, t.Close)
			e.Ret(core.Dispatch)
			return true
		}
		e.Jump(core.Execute) // closed-loop back edge
	}
}

// deopt reconstructs the interpreter state from snap and invalidates the
// trace after persistent failures.
func (x *executor) deopt(f *pyobj.Frame, t *Trace, snap *Snapshot) {
	vm := x.j.vm
	e := vm.Eng
	x.j.Stats.Deopts++
	if snap != t.Close {
		snap.Fails++
		if snap.Fails > x.j.cfg.GuardFailLimit {
			t.Invalid = true
			x.j.Stats.Invalidations++
		}
	}

	// Materialize the value stack.
	for i, rg := range snap.Stack {
		v := x.box(x.regs[rg])
		e.Store(core.Stack, f.StackAddr(i))
		f.Stack[i] = v
		vm.Heap.WriteBarrier(f, v)
	}
	for i := len(snap.Stack); i < f.Sp; i++ {
		f.Stack[i] = nil
	}
	f.Sp = len(snap.Stack)

	// Restore the block stack for the resume point.
	f.Blocks = append(f.Blocks[:0], snap.Blocks...)

	// Materialize dirty locals. A register that is still empty (first
	// iteration, before its defining operation ran) means the frame's
	// own value is still current. Slots are visited in ascending order,
	// not map order: boxing allocates, so the order decides the simulated
	// addresses and with them the event stream.
	for slot := range f.Locals {
		rg, dirty := snap.Locals[slot]
		if !dirty {
			continue
		}
		rv := x.regs[rg]
		if rv.kind == kObj && rv.obj == nil {
			continue
		}
		v := x.box(rv)
		e.Store(core.Stack, f.LocalAddr(slot))
		f.Locals[slot] = v
		vm.Heap.WriteBarrier(f, v)
	}
	f.PC = snap.ResumePC
}

// execOp runs one trace operation, emitting its compiled-code events.
// Returns false when a guard deoptimized (state already reconstructed).
func (x *executor) execOp(f *pyobj.Frame, t *Trace, op *Op) bool {
	vm := x.j.vm
	e := vm.Eng
	regs := x.regs

	if op.Snap != nil {
		x.j.Stats.GuardChecks++
		// Chaos mode: spuriously fail this guard even though its condition
		// holds. Only re-execution snapshots (ResumePC == SrcPC) are
		// eligible: they restore the state before the originating bytecode
		// and let the interpreter redo it, so the forced exit is
		// semantics-preserving. Side-exit snapshots (branch guards,
		// iterator exhaustion) encode the guard-failed successor and may
		// only be taken when the condition really fails. Repeated firing
		// blacklists the trace via Fails, exercising invalidation too.
		if op.Snap.ResumePC == op.SrcPC && x.j.cfg.Faults.Should(faults.GuardCorrupt) {
			x.j.Stats.InjectedFaults++
			x.deopt(f, t, op.Snap)
			return false
		}
	}
	switch op.Kind {
	case OpGuardInt:
		e.Load(core.TypeCheck, hdrAddr(regs[op.R1]), false)
		e.Branch(core.TypeCheck, true)
		if k := regs[op.R1].kind; k != kInt && k != kBool &&
			!(k == kObj && isIntLike(regs[op.R1].obj)) {
			x.deopt(f, t, op.Snap)
			return false
		}
	case OpGuardFloat:
		e.Load(core.TypeCheck, hdrAddr(regs[op.R1]), false)
		e.Branch(core.TypeCheck, true)
		if k := regs[op.R1].kind; k != kFloat &&
			!(k == kObj && isFloat(regs[op.R1].obj)) {
			x.deopt(f, t, op.Snap)
			return false
		}
	case OpGuardList:
		e.Load(core.TypeCheck, hdrAddr(regs[op.R1]), false)
		e.Branch(core.TypeCheck, true)
		if _, ok := regs[op.R1].obj.(*pyobj.List); !ok {
			x.deopt(f, t, op.Snap)
			return false
		}
	case OpGuardTrue, OpGuardFalse:
		e.ALU(core.Execute, true)
		e.Branch(core.Execute, true)
		truthy := regs[op.R1].i != 0
		if regs[op.R1].kind == kObj {
			truthy = pyobj.Truthy(x.objOf(op.R1))
		}
		if truthy != (op.Kind == OpGuardTrue) {
			x.deopt(f, t, op.Snap)
			return false
		}
	case OpGuardGlobal:
		// Promoted global: version-check load + compare.
		e.Load(core.NameResolution, 0, false)
		e.ALU(core.NameResolution, true)
		e.Branch(core.NameResolution, true)
		cur, ok := vm.LookupGlobalPure(f.Globals, op.Str)
		if !ok || cur != op.Obj {
			x.deopt(f, t, op.Snap)
			return false
		}
		regs[op.Dst] = rval{obj: op.Obj, kind: kObj}

	case OpIntAdd, OpIntSub, OpIntMul:
		a, b := regs[op.R1].i, regs[op.R2].i
		var v int64
		var overflow bool
		switch op.Kind {
		case OpIntAdd:
			e.ALU(core.Execute, true)
			v = a + b
			overflow = (a > 0 && b > 0 && v < 0) || (a < 0 && b < 0 && v >= 0)
		case OpIntSub:
			e.ALU(core.Execute, true)
			v = a - b
			overflow = (a > 0 && b < 0 && v < 0) || (a < 0 && b > 0 && v >= 0)
		default:
			e.Mul(core.Execute, true)
			v = a * b
			overflow = a != 0 && v/a != b
		}
		e.Branch(core.ErrorCheck, overflow)
		if overflow {
			x.deopt(f, t, op.Snap)
			return false
		}
		regs[op.Dst] = rval{i: v, kind: kInt}
	case OpIntDiv, OpIntMod:
		a, b := regs[op.R1].i, regs[op.R2].i
		e.Branch(core.ErrorCheck, b == 0)
		if b == 0 {
			x.deopt(f, t, op.Snap)
			return false
		}
		e.Div(core.Execute, true)
		var v int64
		if op.Kind == OpIntDiv {
			v = a / b
			if (a%b != 0) && ((a < 0) != (b < 0)) {
				v--
			}
		} else {
			v = a % b
			// Floored-remainder fixup; BrokenGuards (test-only fault
			// injection) omits it to emulate a miscompiled deopt path.
			if !x.j.cfg.BrokenGuards && v != 0 && ((v < 0) != (b < 0)) {
				v += b
			}
		}
		regs[op.Dst] = rval{i: v, kind: kInt}
	case OpIntPow:
		a, b := regs[op.R1].i, regs[op.R2].i
		// Negative exponents produce floats and overflow raises — both
		// leave the fast path through the deopt snapshot, where the
		// interpreter re-executes with full semantics.
		e.Branch(core.ErrorCheck, b < 0)
		if b < 0 {
			x.deopt(f, t, op.Snap)
			return false
		}
		result, base, exp := int64(1), a, b
		for exp > 0 {
			e.Mul(core.Execute, true)
			if exp&1 == 1 {
				prev := result
				result *= base
				if base != 0 && result/base != prev {
					x.deopt(f, t, op.Snap)
					return false
				}
			}
			nb := base * base
			if base != 0 && exp > 1 && nb/base != base {
				x.deopt(f, t, op.Snap)
				return false
			}
			base = nb
			exp >>= 1
		}
		regs[op.Dst] = rval{i: result, kind: kInt}
	case OpIntAnd:
		e.ALU(core.Execute, true)
		regs[op.Dst] = rval{i: regs[op.R1].i & regs[op.R2].i, kind: kInt}
	case OpIntOr:
		e.ALU(core.Execute, true)
		regs[op.Dst] = rval{i: regs[op.R1].i | regs[op.R2].i, kind: kInt}
	case OpIntXor:
		e.ALU(core.Execute, true)
		regs[op.Dst] = rval{i: regs[op.R1].i ^ regs[op.R2].i, kind: kInt}
	case OpIntShl:
		a, b := regs[op.R1].i, regs[op.R2].i
		bad := b < 0 || b >= 63 || (a<<uint(b))>>uint(b) != a
		e.ALU(core.Execute, true)
		e.Branch(core.ErrorCheck, bad)
		if bad {
			x.deopt(f, t, op.Snap)
			return false
		}
		regs[op.Dst] = rval{i: a << uint(b), kind: kInt}
	case OpIntShr:
		a, b := regs[op.R1].i, regs[op.R2].i
		e.ALU(core.Execute, true)
		e.Branch(core.ErrorCheck, b < 0)
		if b < 0 {
			x.deopt(f, t, op.Snap)
			return false
		}
		if b >= 63 {
			if a < 0 {
				a = -1
			} else {
				a = 0
			}
			regs[op.Dst] = rval{i: a, kind: kInt}
		} else {
			regs[op.Dst] = rval{i: a >> uint(b), kind: kInt}
		}
	case OpIntNeg:
		e.ALU(core.Execute, true)
		regs[op.Dst] = rval{i: -regs[op.R1].i, kind: kInt}
	case OpIntCmp:
		e.ALU(core.Execute, true)
		c := compareI(regs[op.R1].i, regs[op.R2].i)
		regs[op.Dst] = rval{i: boolToI(cmpHolds(pycode.CmpOp(op.Aux), c)), kind: kBool}
	case OpIntToFloat:
		e.FPU(core.Execute, true)
		regs[op.Dst] = rval{f: float64(regs[op.R1].i), kind: kFloat}

	case OpFloatAdd:
		e.FPU(core.Execute, true)
		regs[op.Dst] = rval{f: regs[op.R1].f + regs[op.R2].f, kind: kFloat}
	case OpFloatSub:
		e.FPU(core.Execute, true)
		regs[op.Dst] = rval{f: regs[op.R1].f - regs[op.R2].f, kind: kFloat}
	case OpFloatMul:
		e.FPU(core.Execute, true)
		regs[op.Dst] = rval{f: regs[op.R1].f * regs[op.R2].f, kind: kFloat}
	case OpFloatDiv, OpFloatFloorDiv, OpFloatMod, OpFloatPow:
		a, b := regs[op.R1].f, regs[op.R2].f
		if op.Kind != OpFloatPow {
			e.Branch(core.ErrorCheck, b == 0)
			if b == 0 {
				x.deopt(f, t, op.Snap)
				return false
			}
		}
		e.FDiv(core.Execute, true)
		regs[op.Dst] = rval{f: floatBin(op.Kind, a, b), kind: kFloat}
	case OpFloatCmp:
		e.FPU(core.Execute, true)
		c := compareF(regs[op.R1].f, regs[op.R2].f)
		regs[op.Dst] = rval{i: boolToI(cmpHolds(pycode.CmpOp(op.Aux), c)), kind: kBool}
	case OpFloatNeg:
		e.FPU(core.Execute, true)
		regs[op.Dst] = rval{f: -regs[op.R1].f, kind: kFloat}

	case OpLoadConst:
		switch cv := op.Obj.(type) {
		case *pyobj.Int:
			regs[op.Dst] = rval{obj: cv, i: cv.V, kind: kInt}
		case *pyobj.Float:
			regs[op.Dst] = rval{obj: cv, f: cv.V, kind: kFloat}
		default:
			regs[op.Dst] = rval{obj: op.Obj, kind: kObj}
		}
	case OpLoadLocal:
		e.Load(core.Stack, f.LocalAddr(int(op.Aux)), false)
		v := f.Locals[op.Aux]
		if v == nil {
			x.deopt(f, t, op.Snap)
			return false
		}
		regs[op.Dst] = rval{obj: v, kind: kObj}
	case OpMove:
		regs[op.Dst] = regs[op.R1]

	case OpListGet:
		l := regs[op.R1].obj.(*pyobj.List)
		idx := regs[op.R2].i
		e.ALU(core.ErrorCheck, true)
		e.Branch(core.ErrorCheck, false)
		if idx < 0 || idx >= int64(len(l.Items)) {
			x.deopt(f, t, op.Snap)
			return false
		}
		e.Load(core.Execute, l.H.Addr+24, true)
		e.Load(core.Execute, l.ItemAddr(int(idx)), true)
		regs[op.Dst] = rval{obj: l.Items[idx], kind: kObj}
	case OpListSet:
		l := regs[op.R1].obj.(*pyobj.List)
		idx := regs[op.R2].i
		e.ALU(core.ErrorCheck, true)
		e.Branch(core.ErrorCheck, false)
		if idx < 0 || idx >= int64(len(l.Items)) {
			x.deopt(f, t, op.Snap)
			return false
		}
		v := x.objOf(op.R3)
		e.Store(core.Execute, l.ItemAddr(int(idx)))
		l.Items[idx] = v
		vm.Heap.WriteBarrier(l, v)

	case OpRangeNext:
		it := regs[op.R1].obj.(*pyobj.RangeIter)
		e.Load(core.Execute, it.H.Addr+16, false)
		e.ALU(core.Execute, true)
		done := (it.Step > 0 && it.Cur >= it.Stop) || (it.Step < 0 && it.Cur <= it.Stop)
		e.Branch(core.Execute, done)
		if done {
			x.deopt(f, t, op.Snap)
			return false
		}
		v := it.Cur
		it.Cur += it.Step
		e.Store(core.Execute, it.H.Addr+16)
		regs[op.Dst] = rval{i: v, kind: kInt}
	case OpIterExhausted:
		e.Load(core.Execute, hdrAddr(regs[op.R1])+16, false)
		e.ALU(core.Execute, true)
		exhausted, known := peekExhausted(regs[op.R1].obj)
		e.Branch(core.Execute, exhausted)
		if !known || !exhausted {
			x.deopt(f, t, op.Snap)
			return false
		}
	case OpListIterNext:
		it := regs[op.R1].obj.(*pyobj.ListIter)
		e.Load(core.Execute, it.H.Addr+24, false)
		e.ALU(core.Execute, true)
		done := it.Idx >= len(it.L.Items)
		e.Branch(core.Execute, done)
		if done {
			x.deopt(f, t, op.Snap)
			return false
		}
		e.Load(core.Execute, it.L.ItemAddr(it.Idx), true)
		v := it.L.Items[it.Idx]
		it.Idx++
		e.Store(core.Execute, it.H.Addr+24)
		regs[op.Dst] = rval{obj: v, kind: kObj}

	case OpResidualBin:
		r := vm.BinaryOp(interp.BinKind(op.Aux), x.objOf(op.R1), x.objOf(op.R2))
		regs[op.Dst] = rval{obj: r, kind: kObj}
	case OpResidualCmp:
		r := vm.CompareOp(pycode.CmpOp(op.Aux), x.objOf(op.R1), x.objOf(op.R2))
		regs[op.Dst] = rval{obj: r, kind: kObj}
	case OpResidualGetItem:
		r := vm.GetItem(x.objOf(op.R1), x.objOf(op.R2))
		regs[op.Dst] = rval{obj: r, kind: kObj}
	case OpResidualSetItem:
		vm.SetItem(x.objOf(op.R1), x.objOf(op.R2), x.objOf(op.R3))
	case OpResidualGetAttr:
		r := vm.GetAttr(x.objOf(op.R1), op.Str)
		regs[op.Dst] = rval{obj: r, kind: kObj}
	case OpResidualSetAttr:
		vm.SetAttr(x.objOf(op.R1), op.Str, x.objOf(op.R2))
	case OpResidualCall:
		x.j.Stats.ResidualCalls++
		callable := x.objOf(op.Args[0])
		args := make([]pyobj.Object, len(op.Args)-1)
		for i := 1; i < len(op.Args); i++ {
			args[i-1] = x.objOf(op.Args[i])
		}
		var r pyobj.Object
		switch callable.(type) {
		case *pyobj.Func, *pyobj.BoundMethod, *pyobj.Class:
			// A residual Python call drops back to the bytecode
			// interpreter for the callee.
			prev := e.SetPhase(core.PhaseInterpreter)
			r = vm.CallObject(callable, args)
			e.SetPhase(prev)
		default:
			r = vm.CallObject(callable, args)
		}
		regs[op.Dst] = rval{obj: r, kind: kObj}
	case OpResidualIterNext:
		v, ok := vm.IterNext(x.objOf(op.R1))
		if !ok {
			x.deopt(f, t, op.Snap)
			return false
		}
		regs[op.Dst] = rval{obj: v, kind: kObj}
	case OpResidualGetIter:
		r := vm.GetIter(x.objOf(op.R1))
		regs[op.Dst] = rval{obj: r, kind: kObj}
	case OpResidualUnaryNeg:
		// Residual negation re-enters the interpreter's helper.
		r := vm.BinaryOp(interp.BinSub, vm.NewInt(0), x.objOf(op.R1))
		regs[op.Dst] = rval{obj: r, kind: kObj}
	case OpResidualNot:
		regs[op.Dst] = rval{i: boolToI(!vm.Truthy(x.objOf(op.R1))), kind: kBool}
	case OpResidualTruthy:
		regs[op.Dst] = rval{i: boolToI(vm.Truthy(x.objOf(op.R1))), kind: kBool}
	case OpResidualBuildList:
		items := make([]pyobj.Object, len(op.Args))
		for i, rg := range op.Args {
			items[i] = x.objOf(rg)
			vm.Incref(items[i])
		}
		regs[op.Dst] = rval{obj: vm.NewList(items), kind: kObj}
	case OpResidualBuildTuple:
		items := make([]pyobj.Object, len(op.Args))
		for i, rg := range op.Args {
			items[i] = x.objOf(rg)
			vm.Incref(items[i])
		}
		regs[op.Dst] = rval{obj: vm.NewTuple(items), kind: kObj}
	case OpResidualBuildMap:
		regs[op.Dst] = rval{obj: vm.NewDict(), kind: kObj}
	case OpResidualUnpack:
		var items []pyobj.Object
		switch s := x.objOf(op.R1).(type) {
		case *pyobj.Tuple:
			items = s.Items
		case *pyobj.List:
			items = s.Items
		}
		if items == nil || len(items) != len(op.Args) {
			x.deopt(f, t, op.Snap)
			return false
		}
		for i, rg := range op.Args {
			e.Load(core.Execute, 0, false)
			regs[rg] = rval{obj: items[i], kind: kObj}
		}

	case OpBoxInt:
		regs[op.Dst] = rval{obj: vm.NewInt(regs[op.R1].i), kind: kObj}
	case OpBoxFloat:
		regs[op.Dst] = rval{obj: vm.NewFloat(regs[op.R1].f), kind: kObj}
	case OpBoxBool:
		regs[op.Dst] = rval{obj: vm.NewBool(regs[op.R1].i != 0), kind: kObj}
	case OpUnboxInt:
		if k := regs[op.R1].kind; k == kInt || k == kBool {
			regs[op.Dst] = rval{i: regs[op.R1].i, kind: kInt}
			break
		}
		e.Load(core.Boxing, hdrAddr(regs[op.R1])+16, true)
		v, _ := pyobj.AsInt(regs[op.R1].obj)
		regs[op.Dst] = rval{obj: regs[op.R1].obj, i: v, kind: kInt}
	case OpUnboxFloat:
		if regs[op.R1].kind == kFloat {
			regs[op.Dst] = rval{f: regs[op.R1].f, kind: kFloat}
			break
		}
		e.Load(core.Boxing, hdrAddr(regs[op.R1])+16, true)
		v, _ := pyobj.AsFloat(regs[op.R1].obj)
		regs[op.Dst] = rval{obj: regs[op.R1].obj, f: v, kind: kFloat}
	case OpUnboxBool:
		e.Load(core.Boxing, hdrAddr(regs[op.R1])+16, true)
		b, _ := regs[op.R1].obj.(*pyobj.Bool)
		v := int64(0)
		if b != nil && b.V {
			v = 1
		}
		regs[op.Dst] = rval{obj: regs[op.R1].obj, i: v, kind: kBool}

	default:
		// Unknown op: bail out to the interpreter at the loop header.
		// Counts as a guard check so Deopts <= GuardChecks stays an
		// invariant even on this path.
		if op.Snap == nil {
			x.j.Stats.GuardChecks++
		}
		t.Invalid = true
		x.deopt(f, t, &t.Entry)
		return false
	}
	return true
}

func hdrAddr(v rval) uint64 {
	if v.obj == nil {
		return 0
	}
	return v.obj.Hdr().Addr
}

func compareI(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func compareF(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpHolds(op pycode.CmpOp, c int) bool {
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

func boolToI(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func floatBin(k OpKind, a, b float64) float64 {
	switch k {
	case OpFloatDiv:
		return a / b
	case OpFloatFloorDiv:
		return floorF(a / b)
	case OpFloatMod:
		m := modF(a, b)
		return m
	case OpFloatPow:
		return powF(a, b)
	}
	return 0
}

func floorF(v float64) float64 { return math.Floor(v) }

func modF(a, b float64) float64 {
	m := math.Mod(a, b)
	if m != 0 && (m < 0) != (b < 0) {
		m += b
	}
	return m
}

func powF(a, b float64) float64 { return math.Pow(a, b) }
