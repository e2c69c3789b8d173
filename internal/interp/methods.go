package interp

import (
	"strings"

	"repro/internal/core"
	"repro/internal/pyobj"
)

// ---- list methods ----

func miListAppend(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("list.append", args, 1, 1)
	vm.ListAppend(vm.wantList("list.append", self), args[0])
	return nil
}

func miListPop(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("list.pop", args, 0, 1)
	l := vm.wantList("list.pop", self)
	vm.errCheck(len(l.Items) == 0)
	if len(l.Items) == 0 {
		Raise("IndexError", "pop from empty list")
	}
	idx := len(l.Items) - 1
	if len(args) == 1 {
		idx = vm.normIndex(vm.wantInt("list.pop", args[0]), len(l.Items), "pop index out of range")
	}
	v := l.Items[idx]
	moved := vm.events(len(l.Items)-idx-1, eventCap)
	for i := 0; i < moved; i++ {
		vm.Eng.Load(core.Execute, l.ItemAddr(idx+i+1), false)
		vm.Eng.Store(core.Execute, l.ItemAddr(idx+i))
	}
	vm.Eng.Store(core.Execute, l.H.Addr+16)
	l.Items = append(l.Items[:idx], l.Items[idx+1:]...)
	// Transfer the list's reference to the caller.
	return v
}

func miListSort(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("list.sort", args, 0, 1)
	l := vm.wantList("list.sort", self)
	if len(args) == 1 {
		// key function variant
		type keyed struct {
			key pyobj.Object
			val pyobj.Object
		}
		ks := make([]keyed, len(l.Items))
		for i, v := range l.Items {
			ks[i] = keyed{key: vm.CallObject(args[0], []pyobj.Object{v}), val: v}
		}
		keys := make([]pyobj.Object, len(ks))
		perm := make([]int, len(ks))
		for i := range ks {
			keys[i] = ks[i].key
			perm[i] = i
		}
		vm.sortPermutation(keys, perm)
		out := make([]pyobj.Object, len(ks))
		for i, p := range perm {
			out[i] = ks[p].val
		}
		copy(l.Items, out)
		for i := range ks {
			vm.Decref(ks[i].key)
		}
		return nil
	}
	vm.sortObjects(l.Items)
	// Result stores.
	n := vm.events(len(l.Items), eventCap)
	for i := 0; i < n; i++ {
		vm.Eng.Store(core.Execute, l.ItemAddr(i))
	}
	return nil
}

// sortPermutation stably sorts perm by keys with comparison events.
func (vm *VM) sortPermutation(keys []pyobj.Object, perm []int) {
	failed := false
	stableSortBy(perm, func(a, b int) bool {
		vm.Eng.ALU(core.Execute, true)
		vm.Eng.Branch(core.Execute, false)
		c, ok := pyobj.Compare(keys[a], keys[b])
		if !ok {
			failed = true
			return false
		}
		return c < 0
	})
	vm.errCheck(failed)
	if failed {
		Raise("TypeError", "unorderable sort keys")
	}
}

// stableSortBy is insertion-based merge sort over ints (avoids pulling in
// reflect-heavy sort for a permutation).
func stableSortBy(a []int, less func(x, y int) bool) {
	if len(a) < 2 {
		return
	}
	buf := make([]int, len(a))
	var ms func(lo, hi int)
	ms = func(lo, hi int) {
		if hi-lo < 2 {
			return
		}
		mid := (lo + hi) / 2
		ms(lo, mid)
		ms(mid, hi)
		i, j, k := lo, mid, lo
		for i < mid && j < hi {
			if less(a[j], a[i]) {
				buf[k] = a[j]
				j++
			} else {
				buf[k] = a[i]
				i++
			}
			k++
		}
		for i < mid {
			buf[k] = a[i]
			i++
			k++
		}
		for j < hi {
			buf[k] = a[j]
			j++
			k++
		}
		copy(a[lo:hi], buf[lo:hi])
	}
	ms(0, len(a))
}

func miListExtend(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("list.extend", args, 1, 1)
	l := vm.wantList("list.extend", self)
	vm.iterate(args[0], func(v pyobj.Object) {
		vm.ListAppend(l, v)
	})
	return nil
}

func miListInsert(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("list.insert", args, 2, 2)
	l := vm.wantList("list.insert", self)
	n := vm.wantInt("list.insert", args[0])
	idx := int(n)
	if idx < 0 {
		idx += len(l.Items)
		if idx < 0 {
			idx = 0
		}
	}
	if idx > len(l.Items) {
		idx = len(l.Items)
	}
	vm.ListAppend(l, args[0]) // grow by one (placeholder)
	moved := vm.events(len(l.Items)-idx-1, eventCap)
	for i := 0; i < moved; i++ {
		vm.Eng.Load(core.Execute, l.ItemAddr(len(l.Items)-2-i), false)
		vm.Eng.Store(core.Execute, l.ItemAddr(len(l.Items)-1-i))
	}
	copy(l.Items[idx+1:], l.Items[idx:len(l.Items)-1])
	// Replace the placeholder reference with the real element.
	vm.Decref(args[0])
	l.Items[idx] = args[1]
	vm.Incref(args[1])
	vm.barrier(l, args[1])
	vm.Eng.Store(core.Execute, l.ItemAddr(idx))
	return nil
}

func miListIndex(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("list.index", args, 1, 1)
	l := vm.wantList("list.index", self)
	for i, v := range l.Items {
		if i < eventCap {
			vm.Eng.Load(core.Execute, l.ItemAddr(i), false)
			vm.Eng.ALU(core.Execute, true)
		}
		if pyobj.Equal(v, args[0]) {
			return vm.NewInt(int64(i))
		}
	}
	vm.errCheck(true)
	Raise("ValueError", "%s is not in list", pyobj.Repr(args[0]))
	return nil
}

func miListRemove(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("list.remove", args, 1, 1)
	l := vm.wantList("list.remove", self)
	for i, v := range l.Items {
		if i < eventCap {
			vm.Eng.Load(core.Execute, l.ItemAddr(i), false)
			vm.Eng.ALU(core.Execute, true)
		}
		if pyobj.Equal(v, args[0]) {
			old := l.Items[i]
			copy(l.Items[i:], l.Items[i+1:])
			l.Items = l.Items[:len(l.Items)-1]
			vm.Decref(old)
			return nil
		}
	}
	vm.errCheck(true)
	Raise("ValueError", "list.remove(x): x not in list")
	return nil
}

func miListReverse(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("list.reverse", args, 0, 0)
	l := vm.wantList("list.reverse", self)
	n := len(l.Items)
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		if i < eventCap {
			vm.Eng.Load(core.Execute, l.ItemAddr(i), false)
			vm.Eng.Load(core.Execute, l.ItemAddr(j), false)
			vm.Eng.Store(core.Execute, l.ItemAddr(i))
			vm.Eng.Store(core.Execute, l.ItemAddr(j))
		}
		l.Items[i], l.Items[j] = l.Items[j], l.Items[i]
	}
	return nil
}

func miListCount(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("list.count", args, 1, 1)
	l := vm.wantList("list.count", self)
	var n int64
	for i, v := range l.Items {
		if i < eventCap {
			vm.Eng.Load(core.Execute, l.ItemAddr(i), false)
			vm.Eng.ALU(core.Execute, true)
		}
		if pyobj.Equal(v, args[0]) {
			n++
		}
	}
	return vm.NewInt(n)
}

// ---- dict methods ----

func wantDict(vm *VM, name string, o pyobj.Object) *pyobj.Dict {
	d, ok := o.(*pyobj.Dict)
	vm.errCheck(!ok)
	if !ok {
		Raise("TypeError", "%s: a dict is required", name)
	}
	return d
}

func miDictGet(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("dict.get", args, 1, 2)
	d := wantDict(vm, "dict.get", self)
	v, found := vm.DictGet(d, args[0], core.Execute)
	if found {
		vm.Incref(v)
		return v
	}
	if len(args) == 2 {
		vm.Incref(args[1])
		return args[1]
	}
	vm.Incref(vm.None)
	return vm.None
}

func miDictKeys(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("dict.keys", args, 0, 0)
	d := wantDict(vm, "dict.keys", self)
	var items []pyobj.Object
	d.ForEach(func(k, _ pyobj.Object) {
		vm.Eng.Load(core.Execute, d.TableAddr, false)
		vm.Incref(k)
		items = append(items, k)
	})
	return vm.NewList(items)
}

func miDictValues(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("dict.values", args, 0, 0)
	d := wantDict(vm, "dict.values", self)
	var items []pyobj.Object
	d.ForEach(func(_, v pyobj.Object) {
		vm.Eng.Load(core.Execute, d.TableAddr, false)
		vm.Incref(v)
		items = append(items, v)
	})
	return vm.NewList(items)
}

func miDictItems(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("dict.items", args, 0, 0)
	d := wantDict(vm, "dict.items", self)
	var items []pyobj.Object
	d.ForEach(func(k, v pyobj.Object) {
		vm.Eng.Load(core.Execute, d.TableAddr, false)
		vm.Incref(k)
		vm.Incref(v)
		items = append(items, vm.NewTuple([]pyobj.Object{k, v}))
	})
	return vm.NewList(items)
}

func miDictHasKey(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("dict.has_key", args, 1, 1)
	d := wantDict(vm, "dict.has_key", self)
	_, found := vm.DictGet(d, args[0], core.Execute)
	return vm.NewBool(found)
}

func miDictSetdefault(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("dict.setdefault", args, 1, 2)
	d := wantDict(vm, "dict.setdefault", self)
	if v, found := vm.DictGet(d, args[0], core.Execute); found {
		vm.Incref(v)
		return v
	}
	var def pyobj.Object = vm.None
	if len(args) == 2 {
		def = args[1]
	}
	vm.DictSet(d, args[0], def, core.Execute)
	vm.Incref(def)
	return def
}

func miDictPop(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("dict.pop", args, 1, 2)
	d := wantDict(vm, "dict.pop", self)
	if v, found := vm.DictGet(d, args[0], core.Execute); found {
		vm.Incref(v)
		vm.DelItem(d, args[0])
		return v
	}
	if len(args) == 2 {
		vm.Incref(args[1])
		return args[1]
	}
	Raise("KeyError", "%s", pyobj.Repr(args[0]))
	return nil
}

func miDictCopy(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("dict.copy", args, 0, 0)
	d := wantDict(vm, "dict.copy", self)
	out := vm.NewDict()
	d.ForEach(func(k, v pyobj.Object) {
		vm.DictSet(out, k, v, core.Execute)
	})
	return out
}

func miDictUpdate(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	vm.argCheck("dict.update", args, 1, 1)
	d := wantDict(vm, "dict.update", self)
	src := wantDict(vm, "dict.update", args[0])
	src.ForEach(func(k, v pyobj.Object) {
		vm.DictSet(d, k, v, core.Execute)
	})
	return nil
}

func dictIter(vm *VM, self pyobj.Object, mode pyobj.DictIterMode, name string) pyobj.Object {
	d := wantDict(vm, name, self)
	it := &pyobj.DictIter{D: d, Mode: mode}
	vm.Heap.Allocate(it, core.ObjectAllocation)
	vm.Incref(d)
	vm.barrier(it, d)
	return it
}

func miDictIterkeys(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	return dictIter(vm, self, pyobj.DictIterKeys, "dict.iterkeys")
}

func miDictItervalues(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	return dictIter(vm, self, pyobj.DictIterValues, "dict.itervalues")
}

func miDictIteritems(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	return dictIter(vm, self, pyobj.DictIterItems, "dict.iteritems")
}

// ---- tuple methods ----

func miTupleIndex(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	t, ok := self.(*pyobj.Tuple)
	if !ok {
		Raise("TypeError", "tuple.index: a tuple is required")
	}
	vm.argCheck("tuple.index", args, 1, 1)
	for i, v := range t.Items {
		vm.Eng.ALU(core.Execute, true)
		if pyobj.Equal(v, args[0]) {
			return vm.NewInt(int64(i))
		}
	}
	Raise("ValueError", "tuple.index(x): x not in tuple")
	return nil
}

func miTupleCount(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	t, ok := self.(*pyobj.Tuple)
	if !ok {
		Raise("TypeError", "tuple.count: a tuple is required")
	}
	vm.argCheck("tuple.count", args, 1, 1)
	var n int64
	for _, v := range t.Items {
		vm.Eng.ALU(core.Execute, true)
		if pyobj.Equal(v, args[0]) {
			n++
		}
	}
	return vm.NewInt(n)
}

// ---- str methods ----

func (vm *VM) registerStrMethods(tm func(pyobj.TypeID, string, pyobj.BuiltinID)) {
	t := pyobj.TStr
	tm(t, "join", vm.reg("str.join", 96, false, false, miStrJoin))
	tm(t, "split", vm.reg("str.split", 96, true, false, miStrSplit))
	tm(t, "upper", vm.reg("str.upper", 48, true, false, miStrUpper))
	tm(t, "lower", vm.reg("str.lower", 48, true, false, miStrLower))
	tm(t, "strip", vm.reg("str.strip", 48, true, false, miStrStrip))
	tm(t, "lstrip", vm.reg("str.lstrip", 32, true, false, miStrLstrip))
	tm(t, "rstrip", vm.reg("str.rstrip", 32, true, false, miStrRstrip))
	tm(t, "replace", vm.reg("str.replace", 96, false, false, miStrReplace))
	tm(t, "find", vm.reg("str.find", 64, false, false, miStrFind))
	tm(t, "rfind", vm.reg("str.rfind", 64, false, false, miStrRfind))
	tm(t, "startswith", vm.reg("str.startswith", 32, false, false, miStrStartswith))
	tm(t, "endswith", vm.reg("str.endswith", 32, false, false, miStrEndswith))
	tm(t, "count", vm.reg("str.count", 48, false, false, miStrCount))
	tm(t, "zfill", vm.reg("str.zfill", 32, true, false, miStrZfill))
	tm(t, "isdigit", vm.reg("str.isdigit", 24, true, false, miStrIsdigit))
	tm(t, "isalpha", vm.reg("str.isalpha", 24, true, false, miStrIsalpha))
	tm(t, "ljust", vm.reg("str.ljust", 32, true, false, miStrLjust))
	tm(t, "rjust", vm.reg("str.rjust", 32, true, false, miStrRjust))
}

func wantSelfStr(vm *VM, name string, o pyobj.Object) *pyobj.Str {
	s, ok := o.(*pyobj.Str)
	if !ok {
		Raise("TypeError", "%s requires a str receiver", name)
	}
	return s
}

func miStrJoin(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	sep := wantSelfStr(vm, "str.join", self)
	vm.argCheck("str.join", args, 1, 1)
	var parts []string
	total := 0
	vm.iterate(args[0], func(v pyobj.Object) {
		s, ok := v.(*pyobj.Str)
		if !ok {
			Raise("TypeError", "sequence item: expected string, %s found", pyobj.TypeName(v))
		}
		parts = append(parts, s.V)
		total += len(s.V)
	})
	vm.emitStrScan(sep, total)
	return vm.NewStr(strings.Join(parts, sep.V))
}

func miStrSplit(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	s := wantSelfStr(vm, "str.split", self)
	vm.argCheck("str.split", args, 0, 2)
	vm.emitStrScan(s, len(s.V))
	var parts []string
	if len(args) == 0 {
		parts = strings.Fields(s.V)
	} else {
		sep := vm.wantStr("str.split", args[0])
		if len(args) == 2 {
			n := vm.wantInt("str.split", args[1])
			parts = strings.SplitN(s.V, sep.V, int(n)+1)
		} else {
			parts = strings.Split(s.V, sep.V)
		}
	}
	items := make([]pyobj.Object, len(parts))
	for i, p := range parts {
		items[i] = vm.NewStr(p)
	}
	return vm.NewList(items)
}

func miStrUpper(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	s := wantSelfStr(vm, "str.upper", self)
	vm.emitStrScan(s, len(s.V))
	return vm.NewStr(strings.ToUpper(s.V))
}

func miStrLower(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	s := wantSelfStr(vm, "str.lower", self)
	vm.emitStrScan(s, len(s.V))
	return vm.NewStr(strings.ToLower(s.V))
}

func stripArg(vm *VM, name string, args []pyobj.Object) string {
	if len(args) == 1 {
		return vm.wantStr(name, args[0]).V
	}
	return " \t\n\r\v\f"
}

func miStrStrip(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	s := wantSelfStr(vm, "str.strip", self)
	vm.argCheck("str.strip", args, 0, 1)
	vm.emitStrScan(s, 8)
	return vm.NewStr(strings.Trim(s.V, stripArg(vm, "str.strip", args)))
}

func miStrLstrip(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	s := wantSelfStr(vm, "str.lstrip", self)
	vm.emitStrScan(s, 8)
	return vm.NewStr(strings.TrimLeft(s.V, stripArg(vm, "str.lstrip", args)))
}

func miStrRstrip(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	s := wantSelfStr(vm, "str.rstrip", self)
	vm.emitStrScan(s, 8)
	return vm.NewStr(strings.TrimRight(s.V, stripArg(vm, "str.rstrip", args)))
}

func miStrReplace(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	s := wantSelfStr(vm, "str.replace", self)
	vm.argCheck("str.replace", args, 2, 2)
	old := vm.wantStr("str.replace", args[0])
	new := vm.wantStr("str.replace", args[1])
	vm.emitStrScan(s, len(s.V))
	return vm.NewStr(strings.ReplaceAll(s.V, old.V, new.V))
}

func miStrFind(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	s := wantSelfStr(vm, "str.find", self)
	vm.argCheck("str.find", args, 1, 2)
	sub := vm.wantStr("str.find", args[0])
	start := 0
	if len(args) == 2 {
		start = int(vm.wantInt("str.find", args[1]))
		if start < 0 {
			start += len(s.V)
		}
		if start < 0 {
			start = 0
		}
		if start > len(s.V) {
			return vm.NewInt(-1)
		}
	}
	vm.emitStrScan(s, len(s.V)-start)
	i := strings.Index(s.V[start:], sub.V)
	if i < 0 {
		return vm.NewInt(-1)
	}
	return vm.NewInt(int64(i + start))
}

func miStrRfind(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	s := wantSelfStr(vm, "str.rfind", self)
	vm.argCheck("str.rfind", args, 1, 1)
	sub := vm.wantStr("str.rfind", args[0])
	vm.emitStrScan(s, len(s.V))
	return vm.NewInt(int64(strings.LastIndex(s.V, sub.V)))
}

func miStrStartswith(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	s := wantSelfStr(vm, "str.startswith", self)
	vm.argCheck("str.startswith", args, 1, 1)
	p := vm.wantStr("str.startswith", args[0])
	vm.emitStrScan(s, len(p.V))
	return vm.NewBool(strings.HasPrefix(s.V, p.V))
}

func miStrEndswith(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	s := wantSelfStr(vm, "str.endswith", self)
	vm.argCheck("str.endswith", args, 1, 1)
	p := vm.wantStr("str.endswith", args[0])
	vm.emitStrScan(s, len(p.V))
	return vm.NewBool(strings.HasSuffix(s.V, p.V))
}

func miStrCount(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	s := wantSelfStr(vm, "str.count", self)
	vm.argCheck("str.count", args, 1, 1)
	sub := vm.wantStr("str.count", args[0])
	vm.emitStrScan(s, len(s.V))
	if len(sub.V) == 0 {
		return vm.NewInt(int64(len(s.V) + 1))
	}
	return vm.NewInt(int64(strings.Count(s.V, sub.V)))
}

func miStrZfill(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	s := wantSelfStr(vm, "str.zfill", self)
	vm.argCheck("str.zfill", args, 1, 1)
	w := int(vm.wantInt("str.zfill", args[0]))
	v := s.V
	neg := strings.HasPrefix(v, "-")
	if neg {
		v = v[1:]
		w--
	}
	for len(v) < w {
		v = "0" + v
	}
	if neg {
		v = "-" + v
	}
	vm.emitStrScan(s, len(v))
	return vm.NewStr(v)
}

func miStrIsdigit(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	s := wantSelfStr(vm, "str.isdigit", self)
	vm.emitStrScan(s, len(s.V))
	if len(s.V) == 0 {
		return vm.NewBool(false)
	}
	for i := 0; i < len(s.V); i++ {
		if s.V[i] < '0' || s.V[i] > '9' {
			return vm.NewBool(false)
		}
	}
	return vm.NewBool(true)
}

func miStrIsalpha(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	s := wantSelfStr(vm, "str.isalpha", self)
	vm.emitStrScan(s, len(s.V))
	if len(s.V) == 0 {
		return vm.NewBool(false)
	}
	for i := 0; i < len(s.V); i++ {
		c := s.V[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z') {
			return vm.NewBool(false)
		}
	}
	return vm.NewBool(true)
}

func miStrLjust(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	s := wantSelfStr(vm, "str.ljust", self)
	vm.argCheck("str.ljust", args, 1, 1)
	w := int(vm.wantInt("str.ljust", args[0]))
	v := s.V
	for len(v) < w {
		v += " "
	}
	vm.emitStrScan(s, len(v))
	return vm.NewStr(v)
}

func miStrRjust(vm *VM, self pyobj.Object, args []pyobj.Object) pyobj.Object {
	s := wantSelfStr(vm, "str.rjust", self)
	vm.argCheck("str.rjust", args, 1, 1)
	w := int(vm.wantInt("str.rjust", args[0]))
	v := s.V
	for len(v) < w {
		v = " " + v
	}
	vm.emitStrScan(s, len(v))
	return vm.NewStr(v)
}
