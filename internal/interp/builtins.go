package interp

import (
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/pyobj"
)

// builtinImpl is one registered C function.
type builtinImpl struct {
	name     string
	fn       func(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object
	pc       uint64 // simulated entry point
	packArgs bool   // METH_VARARGS-style args-tuple packing
	clib     bool   // counts as C-library code (modeled extension module)
}

type typeMethodKey struct {
	t    pyobj.TypeID
	name string
}

// typeMethods is shared by all VMs: builtin IDs are allocated in a fixed
// registration order, so every VM computes an identical table. Each VM
// builds its own complete copy during registerBuiltins; the first to
// finish publishes it via typeMethodsOnce. The map is only ever visible
// fully populated, and Once's happens-before edge makes the publication
// safe to read without further synchronization — concurrent VM
// construction is race-free.
var (
	typeMethods     map[typeMethodKey]pyobj.BuiltinID
	typeMethodsOnce sync.Once
)

// lookupTypeMethod finds a built-in type's method implementation.
func (vm *VM) lookupTypeMethod(t pyobj.TypeID, name string) (pyobj.BuiltinID, bool) {
	id, ok := typeMethods[typeMethodKey{t, name}]
	return id, ok
}

// reg registers a builtin implementation and returns its ID.
func (vm *VM) reg(name string, codeInstrs int, packArgs, clib bool,
	fn func(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object) pyobj.BuiltinID {
	id := pyobj.BuiltinID(len(vm.builtinImpls))
	vm.builtinImpls = append(vm.builtinImpls, builtinImpl{
		name: name, fn: fn, pc: vm.clibSpace.Block(codeInstrs),
		packArgs: packArgs, clib: clib,
	})
	return id
}

// bind places a global builtin descriptor in the builtins namespace.
func (vm *VM) bind(name string, id pyobj.BuiltinID) {
	b := &pyobj.Builtin{
		H:    pyobj.Header{Addr: vm.dataAlloc(32), Size: 32, Immortal: true},
		Name: name, ID: id, CodeAddr: vm.builtinImpls[id].pc,
	}
	vm.Builtins.SetStr(name, vm.Intern(name), b)
}

// bindModule creates an immortal builtin module and binds it in builtins.
func (vm *VM) bindModule(name string, entries map[string]pyobj.Object) *pyobj.Module {
	d := vm.newImmortalDict()
	// Deterministic insertion order.
	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		d.SetStr(k, vm.Intern(k), entries[k])
	}
	m := &pyobj.Module{
		H:    pyobj.Header{Addr: vm.dataAlloc(32), Size: 32, Immortal: true},
		Name: name, Dict: d,
	}
	vm.Builtins.SetStr(name, vm.Intern(name), m)
	return m
}

// method builds an immortal builtin descriptor for use inside module
// namespaces.
func (vm *VM) method(name string, id pyobj.BuiltinID) *pyobj.Builtin {
	return &pyobj.Builtin{
		H:    pyobj.Header{Addr: vm.dataAlloc(32), Size: 32, Immortal: true},
		Name: name, ID: id, CodeAddr: vm.builtinImpls[id].pc,
	}
}

// argCheck validates a builtin's arity.
func (vm *VM) argCheck(name string, args []pyobj.Object, min, max int) {
	vm.errCheck(len(args) < min || (max >= 0 && len(args) > max))
	if len(args) < min || (max >= 0 && len(args) > max) {
		Raise("TypeError", "%s() takes %d to %d arguments (%d given)", name, min, max, len(args))
	}
}

func (vm *VM) wantInt(name string, o pyobj.Object) int64 {
	v, ok := pyobj.AsInt(o)
	vm.errCheck(!ok)
	if !ok {
		Raise("TypeError", "%s: an integer is required, got %s", name, pyobj.TypeName(o))
	}
	vm.Eng.Load(core.Boxing, o.Hdr().Addr+16, true)
	return v
}

func (vm *VM) wantFloat(name string, o pyobj.Object) float64 {
	v, ok := pyobj.AsFloat(o)
	vm.errCheck(!ok)
	if !ok {
		Raise("TypeError", "%s: a float is required, got %s", name, pyobj.TypeName(o))
	}
	vm.Eng.Load(core.Boxing, o.Hdr().Addr+16, true)
	return v
}

func (vm *VM) wantStr(name string, o pyobj.Object) *pyobj.Str {
	s, ok := o.(*pyobj.Str)
	vm.errCheck(!ok)
	if !ok {
		Raise("TypeError", "%s: a string is required, got %s", name, pyobj.TypeName(o))
	}
	return s
}

func (vm *VM) wantList(name string, o pyobj.Object) *pyobj.List {
	l, ok := o.(*pyobj.List)
	vm.errCheck(!ok)
	if !ok {
		Raise("TypeError", "%s: a list is required, got %s", name, pyobj.TypeName(o))
	}
	return l
}

// iterate walks any iterable, calling f for each element (borrowed ref).
func (vm *VM) iterate(o pyobj.Object, f func(pyobj.Object)) {
	it := vm.GetIter(o)
	for {
		v, ok := vm.IterNext(it)
		if !ok {
			break
		}
		f(v)
		vm.Decref(v)
	}
	vm.Decref(it)
}

// registerBuiltins wires every builtin function, type method, and module.
// Every VM registers its own implementations (IDs and simulated code
// addresses are identical across VMs) and accumulates the type-method
// table locally; the complete table is published once at the end, so
// readers never observe a partially populated map.
func (vm *VM) registerBuiltins() {
	local := make(map[typeMethodKey]pyobj.BuiltinID)
	tm := func(t pyobj.TypeID, name string, id pyobj.BuiltinID) {
		local[typeMethodKey{t, name}] = id
	}

	// ---- Global functions ----
	vm.bind("print", vm.reg("print", 64, true, false, biPrint))
	vm.bind("len", vm.reg("len", 24, false, false, biLen))
	vm.bind("range", vm.reg("range", 48, true, false, biRange))
	vm.bind("xrange", vm.reg("xrange", 32, true, false, biXRange))
	vm.bind("abs", vm.reg("abs", 24, false, false, biAbs))
	vm.bind("min", vm.reg("min", 48, true, false, biMin))
	vm.bind("max", vm.reg("max", 48, true, false, biMax))
	vm.bind("sum", vm.reg("sum", 48, true, false, biSum))
	vm.bind("int", vm.reg("int", 48, true, false, biInt))
	vm.bind("float", vm.reg("float", 48, true, false, biFloat))
	vm.bind("str", vm.reg("str", 64, false, false, biStr))
	vm.bind("repr", vm.reg("repr", 64, false, false, biRepr))
	vm.bind("bool", vm.reg("bool", 24, false, false, biBool))
	vm.bind("list", vm.reg("list", 48, true, false, biList))
	vm.bind("tuple", vm.reg("tuple", 48, true, false, biTuple))
	vm.bind("dict", vm.reg("dict", 32, true, false, biDict))
	vm.bind("ord", vm.reg("ord", 16, false, false, biOrd))
	vm.bind("chr", vm.reg("chr", 16, false, false, biChr))
	vm.bind("divmod", vm.reg("divmod", 32, true, false, biDivmod))
	vm.bind("sorted", vm.reg("sorted", 96, true, false, biSorted))
	vm.bind("zip", vm.reg("zip", 48, true, false, biZip))
	vm.bind("map", vm.reg("map", 48, true, false, biMap))
	vm.bind("filter", vm.reg("filter", 48, true, false, biFilter))
	vm.bind("round", vm.reg("round", 24, true, false, biRound))
	vm.bind("isinstance", vm.reg("isinstance", 24, true, false, biIsInstance))
	vm.bind("type", vm.reg("type", 16, false, false, biType))
	vm.bind("hash", vm.reg("hash", 24, false, false, biHash))
	vm.bind("id", vm.reg("id", 16, false, false, biID))
	vm.bind("cmp", vm.reg("cmp", 24, true, false, biCmp))

	// ---- list methods ----
	tm(pyobj.TList, "append", vm.reg("list.append", 24, false, false, miListAppend))
	tm(pyobj.TList, "pop", vm.reg("list.pop", 32, true, false, miListPop))
	tm(pyobj.TList, "sort", vm.reg("list.sort", 128, true, false, miListSort))
	tm(pyobj.TList, "extend", vm.reg("list.extend", 48, false, false, miListExtend))
	tm(pyobj.TList, "insert", vm.reg("list.insert", 48, true, false, miListInsert))
	tm(pyobj.TList, "index", vm.reg("list.index", 48, false, false, miListIndex))
	tm(pyobj.TList, "remove", vm.reg("list.remove", 48, false, false, miListRemove))
	tm(pyobj.TList, "reverse", vm.reg("list.reverse", 32, true, false, miListReverse))
	tm(pyobj.TList, "count", vm.reg("list.count", 32, false, false, miListCount))

	// ---- dict methods ----
	tm(pyobj.TDict, "get", vm.reg("dict.get", 32, true, false, miDictGet))
	tm(pyobj.TDict, "keys", vm.reg("dict.keys", 48, true, false, miDictKeys))
	tm(pyobj.TDict, "values", vm.reg("dict.values", 48, true, false, miDictValues))
	tm(pyobj.TDict, "items", vm.reg("dict.items", 64, true, false, miDictItems))
	tm(pyobj.TDict, "has_key", vm.reg("dict.has_key", 24, false, false, miDictHasKey))
	tm(pyobj.TDict, "setdefault", vm.reg("dict.setdefault", 32, true, false, miDictSetdefault))
	tm(pyobj.TDict, "pop", vm.reg("dict.pop", 32, true, false, miDictPop))
	tm(pyobj.TDict, "copy", vm.reg("dict.copy", 64, true, false, miDictCopy))
	tm(pyobj.TDict, "update", vm.reg("dict.update", 64, false, false, miDictUpdate))
	tm(pyobj.TDict, "iterkeys", vm.reg("dict.iterkeys", 24, true, false, miDictIterkeys))
	tm(pyobj.TDict, "itervalues", vm.reg("dict.itervalues", 24, true, false, miDictItervalues))
	tm(pyobj.TDict, "iteritems", vm.reg("dict.iteritems", 24, true, false, miDictIteritems))

	// ---- str methods ----
	vm.registerStrMethods(tm)

	// ---- tuple methods ----
	tm(pyobj.TTuple, "index", vm.reg("tuple.index", 32, false, false, miTupleIndex))
	tm(pyobj.TTuple, "count", vm.reg("tuple.count", 32, false, false, miTupleCount))

	// ---- modules (modeled C libraries) ----
	vm.registerMathModule()
	vm.registerRandomModule()
	vm.registerTimeModule()
	vm.registerJSONModule()
	vm.registerPickleModule()
	vm.registerReModule()

	// Publish the fully built table exactly once. Every table is
	// identical, so losers simply discard theirs.
	typeMethodsOnce.Do(func() { typeMethods = local })
}

// ---- Global builtin implementations ----

func biPrint(vm *VM, _ pyobj.Object, args []pyobj.Object) pyobj.Object {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = formatForPrint(a)
	}
	out := strings.Join(parts, " ")
	// Model the write(2) path: stores into the I/O buffer.
	n := vm.events((len(out)+8)/8, 256)
	for i := 0; i < n; i++ {
		vm.Eng.Store(core.Execute, mem_ioBuf+uint64(i*8))
	}
	vm.writeOut(out)
	vm.writeOut("\n")
	return nil
}

// mem_ioBuf is the simulated stdio buffer address.
const mem_ioBuf = 0x0000_0000_0f00_0000

func biLen(vm *VM, _ pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("len", args, 1, 1)
	o := args[0]
	vm.Eng.Load(core.TypeCheck, o.Hdr().Addr, false)
	vm.Eng.Load(core.Execute, o.Hdr().Addr+16, true) // ob_size
	switch c := o.(type) {
	case *pyobj.Str:
		return vm.NewInt(int64(len(c.V)))
	case *pyobj.List:
		return vm.NewInt(int64(len(c.Items)))
	case *pyobj.Tuple:
		return vm.NewInt(int64(len(c.Items)))
	case *pyobj.Dict:
		return vm.NewInt(int64(c.Len()))
	case *pyobj.Range:
		return vm.NewInt(c.Len())
	}
	Raise("TypeError", "object of type '%s' has no len()", pyobj.TypeName(o))
	return nil
}

func rangeArgs(vm *VM, name string, args []pyobj.Object) (int64, int64, int64) {
	vm.argCheck(name, args, 1, 3)
	var start, stop, step int64 = 0, 0, 1
	switch len(args) {
	case 1:
		stop = vm.wantInt(name, args[0])
	case 2:
		start = vm.wantInt(name, args[0])
		stop = vm.wantInt(name, args[1])
	case 3:
		start = vm.wantInt(name, args[0])
		stop = vm.wantInt(name, args[1])
		step = vm.wantInt(name, args[2])
		vm.errCheck(step == 0)
		if step == 0 {
			Raise("ValueError", "%s() arg 3 must not be zero", name)
		}
	}
	return start, stop, step
}

// biRange is Python 2 range(): it materializes a real list of boxed ints.
func biRange(vm *VM, _ pyobj.Object, args []pyobj.Object) pyobj.Object {
	start, stop, step := rangeArgs(vm, "range", args)
	r := pyobj.Range{Start: start, Stop: stop, Step: step}
	n := r.Len()
	if n > 64<<20 {
		Raise("MemoryError", "range too large")
	}
	items := make([]pyobj.Object, 0, n)
	for v := start; (step > 0 && v < stop) || (step < 0 && v > stop); v += step {
		items = append(items, vm.NewInt(v))
	}
	return vm.NewList(items)
}

func biXRange(vm *VM, _ pyobj.Object, args []pyobj.Object) pyobj.Object {
	start, stop, step := rangeArgs(vm, "xrange", args)
	return vm.NewRange(start, stop, step)
}

func biAbs(vm *VM, _ pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("abs", args, 1, 1)
	switch v := args[0].(type) {
	case *pyobj.Int:
		vm.Eng.ALU(core.Execute, true)
		if v.V < 0 {
			return vm.NewInt(-v.V)
		}
		vm.Incref(v)
		return v
	case *pyobj.Float:
		vm.Eng.FPU(core.Execute, true)
		if v.V < 0 {
			return vm.NewFloat(-v.V)
		}
		vm.Incref(v)
		return v
	case *pyobj.Bool:
		if v.V {
			return vm.NewInt(1)
		}
		return vm.NewInt(0)
	}
	Raise("TypeError", "bad operand type for abs(): '%s'", pyobj.TypeName(args[0]))
	return nil
}

func minmax(vm *VM, name string, args []pyobj.Object, wantMax bool) pyobj.Object {
	vm.argCheck(name, args, 1, -1)
	var items []pyobj.Object
	if len(args) == 1 {
		vm.iterate(args[0], func(v pyobj.Object) {
			vm.Incref(v)
			items = append(items, v)
		})
	} else {
		for _, a := range args {
			vm.Incref(a)
			items = append(items, a)
		}
	}
	vm.errCheck(len(items) == 0)
	if len(items) == 0 {
		Raise("ValueError", "%s() arg is an empty sequence", name)
	}
	best := items[0]
	for _, v := range items[1:] {
		vm.Eng.ALU(core.Execute, true)
		vm.Eng.Branch(core.Execute, false)
		c, ok := pyobj.Compare(v, best)
		if !ok {
			Raise("TypeError", "%s(): unorderable types", name)
		}
		if (wantMax && c > 0) || (!wantMax && c < 0) {
			best = v
		}
	}
	vm.Incref(best)
	for _, v := range items {
		vm.Decref(v)
	}
	return best
}

func biMin(vm *VM, _ pyobj.Object, args []pyobj.Object) pyobj.Object {
	return minmax(vm, "min", args, false)
}

func biMax(vm *VM, _ pyobj.Object, args []pyobj.Object) pyobj.Object {
	return minmax(vm, "max", args, true)
}

func biSum(vm *VM, _ pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("sum", args, 1, 2)
	var isum int64
	var fsum float64
	isInt := true
	if len(args) == 2 {
		if f, ok := args[1].(*pyobj.Float); ok {
			isInt = false
			fsum = f.V
		} else {
			isum = vm.wantInt("sum", args[1])
		}
	}
	vm.iterate(args[0], func(v pyobj.Object) {
		vm.Eng.ALU(core.Execute, true)
		if isInt {
			if iv, ok := pyobj.AsInt(v); ok {
				isum += iv
				return
			}
			isInt = false
			fsum = float64(isum)
		}
		fv, ok := pyobj.AsFloat(v)
		if !ok {
			Raise("TypeError", "sum(): unsupported operand type '%s'", pyobj.TypeName(v))
		}
		fsum += fv
	})
	if isInt {
		return vm.NewInt(isum)
	}
	return vm.NewFloat(fsum)
}

func biInt(vm *VM, _ pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("int", args, 0, 2)
	if len(args) == 0 {
		return vm.NewInt(0)
	}
	switch v := args[0].(type) {
	case *pyobj.Int:
		vm.Incref(v)
		return v
	case *pyobj.Bool:
		if v.V {
			return vm.NewInt(1)
		}
		return vm.NewInt(0)
	case *pyobj.Float:
		vm.Eng.FPU(core.Execute, true)
		return vm.NewInt(int64(v.V))
	case *pyobj.Str:
		base := int64(10)
		if len(args) == 2 {
			base = vm.wantInt("int", args[1])
		}
		vm.emitStrScan(v, len(v.V))
		s := strings.TrimSpace(v.V)
		n, err := strconv.ParseInt(s, int(base), 64)
		vm.errCheck(err != nil)
		if err != nil {
			Raise("ValueError", "invalid literal for int(): %q", v.V)
		}
		return vm.NewInt(n)
	}
	Raise("TypeError", "int() argument must be a string or a number")
	return nil
}

func biFloat(vm *VM, _ pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("float", args, 0, 1)
	if len(args) == 0 {
		return vm.NewFloat(0)
	}
	switch v := args[0].(type) {
	case *pyobj.Float:
		vm.Incref(v)
		return v
	case *pyobj.Int:
		return vm.NewFloat(float64(v.V))
	case *pyobj.Bool:
		if v.V {
			return vm.NewFloat(1)
		}
		return vm.NewFloat(0)
	case *pyobj.Str:
		vm.emitStrScan(v, len(v.V))
		f, err := strconv.ParseFloat(strings.TrimSpace(v.V), 64)
		vm.errCheck(err != nil)
		if err != nil {
			Raise("ValueError", "could not convert string to float: %q", v.V)
		}
		return vm.NewFloat(f)
	}
	Raise("TypeError", "float() argument must be a string or a number")
	return nil
}

func biStr(vm *VM, _ pyobj.Object, args []pyobj.Object) pyobj.Object {
	if len(args) == 0 {
		vm.Incref(vm.emptyStr)
		return vm.emptyStr
	}
	vm.argCheck("str", args, 1, 1)
	if s, ok := args[0].(*pyobj.Str); ok {
		vm.Incref(s)
		return s
	}
	out := pyobj.StrOf(args[0])
	vm.Eng.ALUn(core.Execute, 4)
	return vm.NewStr(out)
}

func biRepr(vm *VM, _ pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("repr", args, 1, 1)
	vm.Eng.ALUn(core.Execute, 4)
	return vm.NewStr(pyobj.Repr(args[0]))
}

func biBool(vm *VM, _ pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("bool", args, 0, 1)
	if len(args) == 0 {
		return vm.NewBool(false)
	}
	return vm.NewBool(vm.Truthy(args[0]))
}

func biList(vm *VM, _ pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("list", args, 0, 1)
	if len(args) == 0 {
		return vm.NewList(nil)
	}
	var items []pyobj.Object
	vm.iterate(args[0], func(v pyobj.Object) {
		vm.Incref(v)
		items = append(items, v)
	})
	return vm.NewList(items)
}

func biTuple(vm *VM, _ pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("tuple", args, 0, 1)
	if len(args) == 0 {
		return vm.NewTuple(nil)
	}
	if t, ok := args[0].(*pyobj.Tuple); ok {
		vm.Incref(t)
		return t
	}
	var items []pyobj.Object
	vm.iterate(args[0], func(v pyobj.Object) {
		vm.Incref(v)
		items = append(items, v)
	})
	return vm.NewTuple(items)
}

func biDict(vm *VM, _ pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("dict", args, 0, 1)
	d := vm.NewDict()
	if len(args) == 1 {
		switch src := args[0].(type) {
		case *pyobj.Dict:
			src.ForEach(func(k, v pyobj.Object) {
				vm.DictSet(d, k, v, core.Execute)
			})
		default:
			vm.iterate(args[0], func(pair pyobj.Object) {
				t, ok := pair.(*pyobj.Tuple)
				if !ok || len(t.Items) != 2 {
					Raise("TypeError", "dict update sequence elements must be pairs")
				}
				vm.DictSet(d, t.Items[0], t.Items[1], core.Execute)
			})
		}
	}
	return d
}

func biOrd(vm *VM, _ pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("ord", args, 1, 1)
	s := vm.wantStr("ord", args[0])
	vm.errCheck(len(s.V) != 1)
	if len(s.V) != 1 {
		Raise("TypeError", "ord() expected a character, got string of length %d", len(s.V))
	}
	return vm.NewInt(int64(s.V[0]))
}

func biChr(vm *VM, _ pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("chr", args, 1, 1)
	n := vm.wantInt("chr", args[0])
	vm.errCheck(n < 0 || n > 255)
	if n < 0 || n > 255 {
		Raise("ValueError", "chr() arg not in range(256)")
	}
	return vm.charStr(byte(n))
}

func biDivmod(vm *VM, _ pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("divmod", args, 2, 2)
	a := vm.wantInt("divmod", args[0])
	b := vm.wantInt("divmod", args[1])
	vm.errCheck(b == 0)
	if b == 0 {
		Raise("ZeroDivisionError", "integer division or modulo by zero")
	}
	vm.Eng.Div(core.Execute, true)
	q := a / b
	r := a % b
	if r != 0 && (r < 0) != (b < 0) {
		q--
		r += b
	}
	return vm.NewTuple([]pyobj.Object{vm.NewInt(q), vm.NewInt(r)})
}

// sortObjects sorts items in place with per-comparison events.
func (vm *VM) sortObjects(items []pyobj.Object) {
	failed := false
	sort.SliceStable(items, func(i, j int) bool {
		vm.Eng.Load(core.Execute, items[i].Hdr().Addr, false)
		vm.Eng.Load(core.Execute, items[j].Hdr().Addr, false)
		vm.Eng.ALU(core.Execute, true)
		vm.Eng.Branch(core.Execute, false)
		c, ok := pyobj.Compare(items[i], items[j])
		if !ok {
			failed = true
			return false
		}
		return c < 0
	})
	vm.errCheck(failed)
	if failed {
		Raise("TypeError", "unorderable types in sort")
	}
}

func biSorted(vm *VM, _ pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("sorted", args, 1, 1)
	var items []pyobj.Object
	vm.iterate(args[0], func(v pyobj.Object) {
		vm.Incref(v)
		items = append(items, v)
	})
	vm.sortObjects(items)
	return vm.NewList(items)
}

func biZip(vm *VM, _ pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("zip", args, 1, -1)
	var cols [][]pyobj.Object
	minLen := -1
	for _, a := range args {
		var col []pyobj.Object
		vm.iterate(a, func(v pyobj.Object) {
			vm.Incref(v)
			col = append(col, v)
		})
		if minLen < 0 || len(col) < minLen {
			minLen = len(col)
		}
		cols = append(cols, col)
	}
	rows := make([]pyobj.Object, minLen)
	for i := 0; i < minLen; i++ {
		row := make([]pyobj.Object, len(cols))
		for j := range cols {
			row[j] = cols[j][i]
		}
		rows[i] = vm.NewTuple(row)
	}
	// Release leftovers beyond minLen.
	for _, col := range cols {
		for i := minLen; i < len(col); i++ {
			vm.Decref(col[i])
		}
	}
	return vm.NewList(rows)
}

func biMap(vm *VM, _ pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("map", args, 2, 2)
	var out []pyobj.Object
	vm.iterate(args[1], func(v pyobj.Object) {
		out = append(out, vm.CallObject(args[0], []pyobj.Object{v}))
	})
	return vm.NewList(out)
}

func biFilter(vm *VM, _ pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("filter", args, 2, 2)
	var out []pyobj.Object
	useIdentity := false
	if _, ok := args[0].(*pyobj.None); ok {
		useIdentity = true
	}
	vm.iterate(args[1], func(v pyobj.Object) {
		keep := false
		if useIdentity {
			keep = vm.Truthy(v)
		} else {
			r := vm.CallObject(args[0], []pyobj.Object{v})
			keep = vm.Truthy(r)
			vm.Decref(r)
		}
		if keep {
			vm.Incref(v)
			out = append(out, v)
		}
	})
	return vm.NewList(out)
}

func biRound(vm *VM, _ pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("round", args, 1, 2)
	f := vm.wantFloat("round", args[0])
	digits := int64(0)
	if len(args) == 2 {
		digits = vm.wantInt("round", args[1])
	}
	vm.Eng.FPU(core.Execute, true)
	scale := 1.0
	for i := int64(0); i < digits; i++ {
		scale *= 10
	}
	for i := int64(0); i > digits; i-- {
		scale /= 10
	}
	v := f * scale
	// Python 2 rounds half away from zero.
	var r float64
	if v >= 0 {
		r = float64(int64(v + 0.5))
	} else {
		r = float64(int64(v - 0.5))
	}
	return vm.NewFloat(r / scale)
}

func biIsInstance(vm *VM, _ pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("isinstance", args, 2, 2)
	inst, ok := args[0].(*pyobj.Instance)
	cls, ok2 := args[1].(*pyobj.Class)
	if !ok || !ok2 {
		return vm.NewBool(false)
	}
	for c := inst.Class; c != nil; c = c.Base {
		vm.Eng.ALU(core.Execute, true)
		if c == cls {
			return vm.NewBool(true)
		}
	}
	return vm.NewBool(false)
}

func biType(vm *VM, _ pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("type", args, 1, 1)
	// MiniPy returns the type's interned name; name equality matches
	// type identity for built-in types.
	s := vm.Intern(pyobj.TypeName(args[0]))
	vm.Incref(s)
	return s
}

func biHash(vm *VM, _ pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("hash", args, 1, 1)
	enc, ok := pyobj.EncodeKey(args[0])
	vm.errCheck(!ok)
	if !ok {
		Raise("TypeError", "unhashable type: '%s'", pyobj.TypeName(args[0]))
	}
	vm.Eng.ALUn(core.Execute, 3)
	return vm.NewInt(int64(pyobj.HashKey(enc)) & 0x7fffffffffffffff)
}

func biID(vm *VM, _ pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("id", args, 1, 1)
	return vm.NewInt(int64(args[0].Hdr().Addr))
}

func biCmp(vm *VM, _ pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("cmp", args, 2, 2)
	vm.Eng.ALU(core.Execute, true)
	if pyobj.Equal(args[0], args[1]) {
		return vm.NewInt(0)
	}
	c, ok := pyobj.Compare(args[0], args[1])
	vm.errCheck(!ok)
	if !ok {
		Raise("TypeError", "cmp(): unorderable types")
	}
	return vm.NewInt(int64(c))
}
