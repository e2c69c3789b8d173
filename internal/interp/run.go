package interp

import (
	"runtime/debug"

	"repro/internal/core"
	"repro/internal/emit"
	"repro/internal/pycode"
	"repro/internal/pycompile"
	"repro/internal/pyobj"
)

// maxRecursion bounds the Python call depth, as CPython's recursion check
// does.
const maxRecursion = 4000

// RunSource compiles and runs a MiniPy program, returning any Python-level
// error.
func (vm *VM) RunSource(file, src string) error {
	code, err := pycompile.CompileSource(file, src)
	if err != nil {
		return err
	}
	return vm.RunCode(code)
}

// RunCode executes a module code object in a fresh module namespace.
//
// This is the host's crash-isolation boundary. Python-level errors come
// back as *PyError. Any other panic reaching here is a runtime bug; it is
// converted — not re-raised — into an *InternalError that preserves the
// original panic value, the Go stack at the panic site, and a snapshot of
// the VM (frame stack, bytecode count, GC stats), so one hostile program
// can never take down a host serving many.
func (vm *VM) RunCode(code *pycode.Code) (err error) {
	vm.unwound = vm.unwound[:0]
	vm.unwoundTotal = 0
	vm.armGovernor()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if pe, ok := r.(*PyError); ok {
			err = pe
			vm.unwound = vm.unwound[:0]
			return
		}
		err = vm.internalError(r, debug.Stack())
	}()
	vm.Globals = vm.NewDict()
	if vm.icSeed != nil {
		vm.bindSeed(code)
	}
	cd := vm.materialize(code)
	f := vm.newFrame(nil, code, vm.Globals, nil, cd)
	res := vm.runFrame(f)
	vm.Decref(res)
	vm.freeFrame(f)
	return nil
}

// materialize assigns simulated addresses to a code object's bytecode,
// constant pool, and names, creating the immortal constant objects
// (CPython's unmarshal step).
func (vm *VM) materialize(code *pycode.Code) *codeData {
	if cd, ok := vm.constCache[code]; ok {
		return cd
	}
	cd := &codeData{
		codeAddr:   vm.dataAlloc(uint64(len(code.Code))*3 + 16),
		constsAddr: vm.dataAlloc(uint64(len(code.Consts))*8 + 16),
		namesAddr:  vm.dataAlloc(uint64(len(code.Names))*8 + 16),
	}
	cd.consts = make([]pyobj.Object, len(code.Consts))
	for i := range code.Consts {
		cd.consts[i] = vm.constObject(code.Consts[i])
	}
	cd.nameObjs = make([]*pyobj.Str, len(code.Names))
	for i, n := range code.Names {
		cd.nameObjs[i] = vm.Intern(n)
	}
	vm.quickenCode(code, cd)
	vm.constCache[code] = cd
	return cd
}

// constObject materializes one constant as an immortal object.
func (vm *VM) constObject(k pycode.Const) pyobj.Object {
	switch k.Kind {
	case pycode.ConstNone:
		return vm.None
	case pycode.ConstBool:
		if k.Int != 0 {
			return vm.True
		}
		return vm.False
	case pycode.ConstInt:
		if k.Int >= smallIntMin && k.Int <= smallIntMax {
			return vm.smallInts[k.Int-smallIntMin]
		}
		return &pyobj.Int{H: pyobj.Header{Addr: vm.dataAlloc(24), Size: 24, Immortal: true}, V: k.Int}
	case pycode.ConstFloat:
		return &pyobj.Float{H: pyobj.Header{Addr: vm.dataAlloc(24), Size: 24, Immortal: true}, V: k.Float}
	case pycode.ConstStr:
		return vm.Intern(k.Str)
	case pycode.ConstTuple:
		items := make([]pyobj.Object, len(k.Tuple))
		for i := range k.Tuple {
			items[i] = vm.constObject(k.Tuple[i])
		}
		size := uint64(40 + len(items)*8)
		return &pyobj.Tuple{H: pyobj.Header{Addr: vm.dataAlloc(size), Size: uint32(size), Immortal: true}, Items: items}
	case pycode.ConstCode:
		return &pyobj.CodeObj{H: pyobj.Header{Addr: vm.dataAlloc(48), Size: 48, Immortal: true}, Code: k.Code}
	}
	panic("interp: unknown constant kind")
}

// newFrame allocates an execution frame — heap churn charged to the
// object-allocation category, with the setup stores charged to function
// setup, mirroring PyFrame_New.
func (vm *VM) newFrame(fn *pyobj.Func, code *pycode.Code, globals, names *pyobj.Dict, cd *codeData) *pyobj.Frame {
	f := &pyobj.Frame{
		Code:       code,
		Fn:         fn,
		Locals: make([]pyobj.Object, len(code.Varnames)),
		// One slot beyond the compiler's worst case: a fused attr-call
		// head (quicken_fuse.go) pushes (callee, self) where the generic
		// LOAD_ATTR pushed one value, and at most one fused window is
		// live per frame.
		Stack: make([]pyobj.Object, code.StackSize+1),
		Globals:    globals,
		Names:      names,
		Consts:     cd.consts,
		ConstsAddr: cd.constsAddr,
		CodeAddr:   cd.codeAddr,
		Insns:      code.Code,
	}
	if cd.quick != nil {
		f.Insns = cd.quick
		f.Caches = cd.caches
		f.ICAddr = cd.icAddr
	}
	vm.Eng.CCall(core.CFunctionCall, vm.hp.frameAlloc, emit.DefaultCCall)
	vm.Heap.Allocate(f, core.ObjectAllocation)
	// Frame header initialization: code/globals/back pointers.
	vm.Eng.Store(core.FunctionSetup, f.H.Addr+16)
	vm.Eng.Store(core.FunctionSetup, f.H.Addr+24)
	vm.Eng.Store(core.FunctionSetup, f.H.Addr+32)
	vm.Eng.CReturn(core.CFunctionCall, emit.DefaultCCall)
	vm.Stats.FrameAlloc++
	return f
}

// freeFrame releases a dead frame (refcount mode returns its block to the
// free list; nursery frames simply die young).
func (vm *VM) freeFrame(f *pyobj.Frame) {
	for i, l := range f.Locals {
		if l != nil {
			vm.Decref(l)
			f.Locals[i] = nil
		}
	}
	for i := 0; i < f.Sp; i++ {
		if f.Stack[i] != nil {
			vm.Decref(f.Stack[i])
			f.Stack[i] = nil
		}
	}
	vm.Heap.FreeObject(f, core.ObjectAllocation)
}

// dispatch emits the fetch/decode events of one bytecode and moves the
// engine to the opcode's handler block.
func (vm *VM) dispatch(f *pyobj.Frame, op pycode.Opcode) {
	vm.iterations++
	vm.Stats.Bytecodes++
	if vm.MaxBytecodes != 0 && vm.iterations > vm.MaxBytecodes {
		// The de-quickened mnemonic keeps the message identical whether
		// or not the site happened to be quickened when the budget hit.
		Raise("RuntimeError", "bytecode budget exceeded in %s at pc=%d (op=%s)",
			f.Code.Name, f.PC, op.Dequicken())
	}
	// Resource governor: one compare against a precomputed threshold
	// covers the step budget and deadline polling (governor.go). No
	// events are emitted — enforcement stays out of overhead attribution.
	if vm.iterations >= vm.nextCheck {
		vm.governorCheck(f, op)
	}
	vm.Eng.At(vm.hp.dispatchLoop)
	vm.Eng.Load(core.Dispatch, f.CodeAddr+uint64(f.PC)*3, true)
	vm.Eng.ALU(core.Dispatch, true) // opcode extract
	vm.Eng.ALU(core.Dispatch, true) // oparg extract / bounds
	vm.Eng.IndJump(core.Dispatch, vm.opPC[op])
}

// runFrame executes f until RETURN_VALUE and returns the result (with a
// reference). Python calls recurse through Go calls, as in CPython.
func (vm *VM) runFrame(f *pyobj.Frame) pyobj.Object {
	back := vm.frame
	f.Back = back
	vm.frame = f
	vm.depth++
	if vm.depth > vm.maxDepth {
		vm.maxDepth = vm.depth
	}
	// completed distinguishes a normal return from a panic unwind: the
	// crash snapshot must be captured here, because this deferred cleanup
	// pops the frame chain before any outer recover can see it. Registered
	// ahead of the recursion check so a depth raise unwinds cleanly too.
	completed := false
	defer func() {
		if !completed {
			vm.noteUnwind(f)
		}
		vm.depth--
		vm.frame = back
	}()
	vm.errCheck(vm.depth > vm.recursionLimit)
	if vm.depth > vm.recursionLimit {
		vm.raiseRecursion()
	}

	// Execute the frame's instruction stream: the per-VM quickened copy
	// when inline caches are armed, the shared Code.Code otherwise. PC
	// indices are identical in both, so everything downstream (jumps,
	// JIT back-edge hooks, crash snapshots) is quickening-oblivious.
	code := f.Insns
	tracer := vm.tracer
	for {
		in := code[f.PC]
		if tracer != nil && tracer.Recording() {
			// The trace recorder sees only generic opcodes: a recorded
			// trace carries its own guards (which re-validate the live
			// dict state at execution time), so feeding it the
			// de-quickened form keeps the JIT and the interpreter's
			// caches observing one and the same guard state.
			tracer.RecordInstr(f, f.PC, pycode.Instr{Op: in.Op.Dequicken(), Arg: in.Arg})
		}
		vm.dispatch(f, in.Op)
		pc := f.PC
		f.PC++
		switch in.Op {
		case pycode.POP_TOP:
			vm.Decref(vm.pop(f))
		case pycode.DUP_TOP:
			v := vm.top(f)
			vm.Incref(v)
			vm.push(f, v)
		case pycode.DUP_TOP_TWO:
			a := vm.peek(f, 2)
			b := vm.peek(f, 1)
			vm.Incref(a)
			vm.Incref(b)
			vm.push(f, a)
			vm.push(f, b)
		case pycode.ROT_TWO:
			a := vm.pop(f)
			b := vm.pop(f)
			vm.push(f, a)
			vm.push(f, b)
		case pycode.ROT_THREE:
			a := vm.pop(f)
			b := vm.pop(f)
			c := vm.pop(f)
			vm.push(f, a)
			vm.push(f, c)
			vm.push(f, b)

		case pycode.LOAD_CONST:
			vm.Eng.ALU(core.RegTransfer, false) // co_consts address
			vm.Eng.Load(core.ConstLoad, f.ConstsAddr+uint64(in.Arg)*8, true)
			v := f.Consts[in.Arg]
			vm.Incref(v)
			vm.push(f, v)
		case pycode.LOAD_FAST:
			vm.Eng.ALU(core.RegTransfer, false)
			vm.Eng.Load(core.Stack, f.LocalAddr(int(in.Arg)), true)
			v := f.Locals[in.Arg]
			vm.errCheck(v == nil)
			if v == nil {
				Raise("UnboundLocalError", "local variable '%s' referenced before assignment",
					f.Code.Varnames[in.Arg])
			}
			vm.Incref(v)
			vm.push(f, v)
		case pycode.STORE_FAST:
			vm.Eng.ALU(core.RegTransfer, false)
			v := vm.pop(f)
			old := f.Locals[in.Arg]
			vm.Eng.Store(core.Stack, f.LocalAddr(int(in.Arg)))
			f.Locals[in.Arg] = v
			vm.barrier(f, v)
			if old != nil {
				vm.Decref(old)
			}

		case pycode.LOAD_GLOBAL, pycode.LOAD_NAME:
			vm.loadName(f, in)
		case pycode.LOAD_GLOBAL_IC:
			vm.loadGlobalIC(f, in, pc)
		case pycode.STORE_GLOBAL:
			v := vm.pop(f)
			vm.DictSetStr(f.Globals, f.Code.Names[in.Arg], v, core.NameResolution)
			vm.Decref(v)
		case pycode.STORE_NAME:
			v := vm.pop(f)
			target := f.Globals
			if f.Names != nil {
				target = f.Names
			}
			vm.DictSetStr(target, f.Code.Names[in.Arg], v, core.NameResolution)
			vm.Decref(v)

		case pycode.LOAD_ATTR:
			obj := vm.pop(f)
			v := vm.getAttr(obj, f.Code.Names[in.Arg])
			vm.push(f, v)
			vm.Decref(obj)
		case pycode.LOAD_ATTR_IC:
			obj := vm.pop(f)
			v := vm.loadAttrIC(f, obj, in, pc)
			vm.push(f, v)
			vm.Decref(obj)
		case pycode.STORE_ATTR:
			obj := vm.pop(f)
			v := vm.pop(f)
			vm.setAttr(obj, f.Code.Names[in.Arg], v)
			vm.Decref(v)
			vm.Decref(obj)
		case pycode.STORE_ATTR_IC:
			obj := vm.pop(f)
			v := vm.pop(f)
			vm.storeAttrIC(f, obj, in, pc, v)
			vm.Decref(v)
			vm.Decref(obj)

		case pycode.UNARY_NEGATIVE:
			v := vm.pop(f)
			r := vm.unaryNeg(v)
			vm.Decref(v)
			vm.push(f, r)
		case pycode.UNARY_NOT:
			v := vm.pop(f)
			t := vm.Truthy(v)
			vm.Decref(v)
			vm.push(f, vm.NewBool(!t))

		case pycode.BINARY_ADD, pycode.BINARY_SUBTRACT, pycode.BINARY_MULTIPLY,
			pycode.BINARY_DIVIDE, pycode.BINARY_FLOOR_DIVIDE, pycode.BINARY_MODULO,
			pycode.BINARY_POWER, pycode.BINARY_LSHIFT, pycode.BINARY_RSHIFT,
			pycode.BINARY_AND, pycode.BINARY_OR, pycode.BINARY_XOR,
			pycode.INPLACE_ADD, pycode.INPLACE_SUBTRACT, pycode.INPLACE_MULTIPLY,
			pycode.INPLACE_DIVIDE, pycode.INPLACE_FLOOR_DIVIDE, pycode.INPLACE_MODULO,
			pycode.INPLACE_AND, pycode.INPLACE_OR, pycode.INPLACE_XOR,
			pycode.INPLACE_LSHIFT, pycode.INPLACE_RSHIFT:
			b := vm.pop(f)
			a := vm.pop(f)
			r := vm.BinaryOp(binKindOf(in.Op), a, b)
			vm.Decref(a)
			vm.Decref(b)
			vm.push(f, r)

		case pycode.BINARY_SUBSCR:
			k := vm.pop(f)
			o := vm.pop(f)
			r := vm.GetItem(o, k)
			vm.Decref(k)
			vm.Decref(o)
			vm.push(f, r)
		case pycode.STORE_SUBSCR:
			k := vm.pop(f)
			o := vm.pop(f)
			v := vm.pop(f)
			vm.SetItem(o, k, v)
			vm.Decref(k)
			vm.Decref(o)
			vm.Decref(v)
		case pycode.DELETE_SUBSCR:
			k := vm.pop(f)
			o := vm.pop(f)
			vm.DelItem(o, k)
			vm.Decref(k)
			vm.Decref(o)

		case pycode.COMPARE_OP:
			b := vm.pop(f)
			a := vm.pop(f)
			r := vm.CompareOp(pycode.CmpOp(in.Arg), a, b)
			vm.Decref(a)
			vm.Decref(b)
			vm.push(f, r)

		case pycode.BUILD_LIST:
			n := int(in.Arg)
			items := make([]pyobj.Object, n)
			for i := n - 1; i >= 0; i-- {
				items[i] = vm.pop(f)
			}
			vm.push(f, vm.NewList(items))
		case pycode.BUILD_TUPLE:
			n := int(in.Arg)
			items := make([]pyobj.Object, n)
			for i := n - 1; i >= 0; i-- {
				items[i] = vm.pop(f)
			}
			vm.push(f, vm.NewTuple(items))
		case pycode.BUILD_MAP:
			vm.push(f, vm.NewDict())
		case pycode.STORE_MAP:
			k := vm.pop(f)
			v := vm.pop(f)
			d, ok := vm.top(f).(*pyobj.Dict)
			if !ok {
				Raise("TypeError", "STORE_MAP on non-dict")
			}
			vm.DictSet(d, k, v, core.Execute)
			vm.Decref(k)
			vm.Decref(v)
		case pycode.BUILD_SLICE:
			var step pyobj.Object = vm.None
			if in.Arg == 3 {
				step = vm.pop(f)
			} else {
				vm.Incref(step) // the slice owns its default-step reference
			}
			hi := vm.pop(f)
			lo := vm.pop(f)
			sl := &pyobj.Slice{Start: lo, Stop: hi, Step: step}
			vm.Heap.Allocate(sl, core.Execute)
			vm.push(f, sl)
		case pycode.UNPACK_SEQUENCE:
			vm.unpackSequence(f, int(in.Arg))

		case pycode.JUMP_FORWARD:
			vm.Eng.Jump(core.Dispatch)
			f.PC = int(in.Arg)
		case pycode.JUMP_ABSOLUTE:
			vm.Eng.Jump(core.Dispatch)
			target := int(in.Arg)
			if target <= pc && tracer != nil {
				if tracer.OnBackEdge(f, target) {
					continue // compiled code advanced the frame
				}
			}
			f.PC = target
		case pycode.POP_JUMP_IF_FALSE:
			v := vm.pop(f)
			t := vm.Truthy(v)
			vm.Decref(v)
			vm.Eng.Branch(core.Execute, !t)
			if !t {
				f.PC = int(in.Arg)
			}
		case pycode.POP_JUMP_IF_TRUE:
			v := vm.pop(f)
			t := vm.Truthy(v)
			vm.Decref(v)
			vm.Eng.Branch(core.Execute, t)
			if t {
				f.PC = int(in.Arg)
			}
		case pycode.JUMP_IF_FALSE_OR_POP:
			v := vm.top(f)
			t := vm.Truthy(v)
			vm.Eng.Branch(core.Execute, !t)
			if !t {
				f.PC = int(in.Arg)
			} else {
				vm.Decref(vm.pop(f))
			}
		case pycode.JUMP_IF_TRUE_OR_POP:
			v := vm.top(f)
			t := vm.Truthy(v)
			vm.Eng.Branch(core.Execute, t)
			if t {
				f.PC = int(in.Arg)
			} else {
				vm.Decref(vm.pop(f))
			}

		case pycode.SETUP_LOOP:
			// Push a loop block: block-stack pointer math + stores.
			vm.Eng.ALU(core.RichControlFlow, false)
			vm.Eng.Store(core.RichControlFlow, f.H.Addr+40)
			f.Blocks = append(f.Blocks, pyobj.Block{Handler: in.Arg, StackDepth: int32(f.Sp)})
		case pycode.POP_BLOCK:
			vm.Eng.ALU(core.RichControlFlow, false)
			vm.Eng.Load(core.RichControlFlow, f.H.Addr+40, false)
			f.Blocks = f.Blocks[:len(f.Blocks)-1]
		case pycode.BREAK_LOOP:
			vm.Eng.ALU(core.RichControlFlow, false)
			vm.Eng.Load(core.RichControlFlow, f.H.Addr+40, false)
			b := f.Blocks[len(f.Blocks)-1]
			f.Blocks = f.Blocks[:len(f.Blocks)-1]
			for f.Sp > int(b.StackDepth) {
				vm.Decref(vm.pop(f))
			}
			vm.Eng.Jump(core.RichControlFlow)
			f.PC = int(b.Handler)
		case pycode.CONTINUE_LOOP:
			vm.Eng.Jump(core.RichControlFlow)
			target := int(in.Arg)
			if target <= pc && tracer != nil {
				if tracer.OnBackEdge(f, target) {
					continue
				}
			}
			f.PC = target

		case pycode.GET_ITER:
			v := vm.pop(f)
			it := vm.GetIter(v)
			vm.Decref(v)
			vm.push(f, it)
		case pycode.FOR_ITER:
			it := vm.top(f)
			v, ok := vm.IterNext(it)
			if ok {
				vm.push(f, v)
			} else {
				vm.Decref(vm.pop(f)) // exhausted iterator
				vm.Eng.Jump(core.Dispatch)
				f.PC = int(in.Arg)
			}

		case pycode.CALL_FUNCTION:
			vm.callFunction(f, int(in.Arg))

		// Tier-2 superinstructions and speculative int forms
		// (quicken_fuse.go). Only the per-VM quickened stream ever
		// contains these.
		case pycode.LOAD_ATTR_CALL_METHOD:
			vm.loadAttrCallMethod(f, in, pc)
		case pycode.CALL_METHOD:
			vm.callMethod(f, int(in.Arg))
		case pycode.COMPARE_POP_JUMP:
			vm.comparePopJump(f, in, pc)
		case pycode.LOAD_FAST_LOAD_FAST:
			vm.loadFastLoadFast(f, in, pc)
		case pycode.BINARY_ADD_INT, pycode.BINARY_SUB_INT, pycode.BINARY_MUL_INT:
			vm.intFastBin(f, in.Op, pc)
		case pycode.COMPARE_OP_INT:
			vm.compareOpInt(f, in, pc)

		// Operand-borrowing superinstructions (quicken_fuse.go).
		case pycode.LOAD_FAST_LOAD_ATTR:
			vm.loadFastLoadAttr(f, in, pc)
		case pycode.LOAD_FAST_STORE_ATTR:
			vm.loadFastStoreAttr(f, in, pc)
		case pycode.LOAD_FAST_BINARY:
			vm.loadFastBinary(f, in, pc)
		case pycode.LOAD_CONST_BINARY:
			vm.loadConstBinary(f, in, pc)
		case pycode.LOAD_GLOBAL_BINARY:
			vm.loadGlobalBinary(f, in, pc)
		case pycode.LOAD_FAST_FAST_CMP_JUMP:
			vm.loadFastFastCmpJump(f, in, pc)
		case pycode.LOAD_CONST_RETURN:
			// Fused LOAD_CONST + RETURN_VALUE: the result never touches
			// the operand stack.
			v := vm.constBorrow(f, int(in.Arg))
			vm.Incref(v)
			vm.retireElided(f, pycode.RETURN_VALUE)
			vm.Eng.ALU(core.FunctionSetup, false)
			vm.Stats.IC.FusedHits++
			vm.fuseTick()
			completed = true
			return v

		case pycode.MAKE_FUNCTION:
			vm.makeFunction(f, int(in.Arg))
		case pycode.RETURN_VALUE:
			// Return: result handoff, frame teardown.
			v := vm.pop(f)
			vm.Eng.ALU(core.FunctionSetup, false)
			completed = true
			return v
		case pycode.BUILD_CLASS:
			vm.buildClass(f, f.Code.Names[in.Arg])

		case pycode.PRINT_ITEM:
			v := vm.pop(f)
			vm.writeOut(formatForPrint(v))
			vm.Decref(v)
		case pycode.PRINT_NEWLINE:
			vm.writeOut("\n")
		case pycode.NOP:
			// nothing
		default:
			Raise("SystemError", "unknown opcode %s", in.Op)
		}
	}
}

// loadName implements LOAD_GLOBAL (function scope) and LOAD_NAME
// (module/class scope): map lookups charged to name resolution.
func (vm *VM) loadName(f *pyobj.Frame, in pycode.Instr) {
	name := f.Code.Names[in.Arg]
	if f.Names != nil && in.Op == pycode.LOAD_NAME {
		if v, ok := vm.DictGetStr(f.Names, name, core.NameResolution); ok {
			vm.Incref(v)
			vm.push(f, v)
			return
		}
	}
	if v, ok := vm.DictGetStr(f.Globals, name, core.NameResolution); ok {
		vm.Incref(v)
		vm.push(f, v)
		return
	}
	v, ok := vm.DictGetStr(vm.Builtins, name, core.NameResolution)
	vm.errCheck(!ok)
	if !ok {
		Raise("NameError", "name '%s' is not defined", name)
	}
	vm.Incref(v)
	vm.push(f, v)
}

// makeFunction implements MAKE_FUNCTION: pops the code object and ndefaults
// default values, producing a function object.
func (vm *VM) makeFunction(f *pyobj.Frame, ndefaults int) {
	co, ok := vm.pop(f).(*pyobj.CodeObj)
	if !ok {
		Raise("SystemError", "MAKE_FUNCTION without code object")
	}
	defaults := make([]pyobj.Object, ndefaults)
	for i := ndefaults - 1; i >= 0; i-- {
		defaults[i] = vm.pop(f)
	}
	cd := vm.materialize(co.Code)
	fn := &pyobj.Func{
		Name:       co.Code.Name,
		Code:       co.Code,
		Globals:    f.Globals,
		Defaults:   defaults,
		ConstObjs:  cd.consts,
		CodeAddr:   cd.codeAddr,
		ConstsAddr: cd.constsAddr,
	}
	vm.Heap.Allocate(fn, core.Execute)
	vm.Eng.Store(core.Execute, fn.H.Addr+16)
	vm.Eng.Store(core.Execute, fn.H.Addr+24)
	for _, d := range defaults {
		vm.barrier(fn, d)
	}
	vm.Incref(f.Globals) // the function owns its globals reference
	vm.barrier(fn, f.Globals)
	vm.push(f, fn)
}

// buildClass implements BUILD_CLASS: pops the body function and base,
// executes the body in a fresh namespace, and produces the class object.
func (vm *VM) buildClass(f *pyobj.Frame, name string) {
	bodyFn, ok := vm.pop(f).(*pyobj.Func)
	if !ok {
		Raise("SystemError", "BUILD_CLASS without body function")
	}
	baseObj := vm.pop(f)
	var base *pyobj.Class
	if _, isNone := baseObj.(*pyobj.None); !isNone {
		b, ok := baseObj.(*pyobj.Class)
		if !ok {
			Raise("TypeError", "class base must be a class, not %s", pyobj.TypeName(baseObj))
		}
		base = b
	}

	ns := vm.NewDict()
	cd := vm.materialize(bodyFn.Code)
	bf := vm.newFrame(bodyFn, bodyFn.Code, bodyFn.Globals, ns, cd)
	res := vm.runFrame(bf)
	vm.Decref(res)
	vm.freeFrame(bf)

	cls := &pyobj.Class{Name: name, Dict: ns, Base: base}
	vm.Heap.Allocate(cls, core.Execute)
	vm.Eng.Store(core.Execute, cls.H.Addr+16)
	vm.barrier(cls, ns)
	if base != nil {
		vm.barrier(cls, base)
	}
	vm.Decref(bodyFn)
	if base == nil {
		// No base: consume the pushed None. Otherwise the stack's
		// reference transfers into cls.Base (decref'd at class dealloc).
		vm.Decref(baseObj)
	}
	vm.push(f, cls)
}

// unpackSequence implements UNPACK_SEQUENCE: pops a sequence and pushes
// its n elements so the leftmost ends up on top.
func (vm *VM) unpackSequence(f *pyobj.Frame, n int) {
	seq := vm.pop(f)
	vm.Eng.Load(core.TypeCheck, seq.Hdr().Addr, false)
	var items []pyobj.Object
	switch s := seq.(type) {
	case *pyobj.Tuple:
		vm.Eng.Branch(core.TypeCheck, true)
		items = s.Items
	case *pyobj.List:
		vm.Eng.Branch(core.TypeCheck, true)
		items = s.Items
	default:
		Raise("TypeError", "cannot unpack %s", pyobj.TypeName(seq))
	}
	vm.errCheck(len(items) != n)
	if len(items) != n {
		Raise("ValueError", "unpack expected %d values, got %d", n, len(items))
	}
	for i := n - 1; i >= 0; i-- {
		vm.Eng.Load(core.Execute, itemAddrOf(seq, i), false)
		vm.Incref(items[i])
		vm.push(f, items[i])
	}
	vm.Decref(seq)
}

func itemAddrOf(seq pyobj.Object, i int) uint64 {
	switch s := seq.(type) {
	case *pyobj.Tuple:
		return s.ItemAddr(i)
	case *pyobj.List:
		return s.ItemAddr(i)
	}
	return 0
}

func binKindOf(op pycode.Opcode) BinKind {
	switch op {
	case pycode.BINARY_ADD, pycode.INPLACE_ADD:
		return BinAdd
	case pycode.BINARY_SUBTRACT, pycode.INPLACE_SUBTRACT:
		return BinSub
	case pycode.BINARY_MULTIPLY, pycode.INPLACE_MULTIPLY:
		return BinMul
	case pycode.BINARY_DIVIDE, pycode.INPLACE_DIVIDE:
		return BinDiv
	case pycode.BINARY_FLOOR_DIVIDE, pycode.INPLACE_FLOOR_DIVIDE:
		return BinFloorDiv
	case pycode.BINARY_MODULO, pycode.INPLACE_MODULO:
		return BinMod
	case pycode.BINARY_POWER:
		return BinPow
	case pycode.BINARY_LSHIFT, pycode.INPLACE_LSHIFT:
		return BinLShift
	case pycode.BINARY_RSHIFT, pycode.INPLACE_RSHIFT:
		return BinRShift
	case pycode.BINARY_AND, pycode.INPLACE_AND:
		return BinAnd
	case pycode.BINARY_OR, pycode.INPLACE_OR:
		return BinOr
	case pycode.BINARY_XOR, pycode.INPLACE_XOR:
		return BinXor
	}
	panic("interp: not a binary opcode")
}
