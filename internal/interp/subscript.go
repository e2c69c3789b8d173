package interp

import (
	"repro/internal/core"
	"repro/internal/pyobj"
)

// GetItem implements o[k] with CPython's structure: a list[int] fast path
// in the handler, everything else through the tp_getitem C call.
func (vm *VM) GetItem(o, k pyobj.Object) pyobj.Object {
	e := vm.Eng
	e.Load(core.TypeCheck, o.Hdr().Addr, false)
	l, oIsList := o.(*pyobj.List)
	ki, kIsInt := k.(*pyobj.Int)
	fast := oIsList && kIsInt
	e.Branch(core.TypeCheck, fast)
	if fast {
		e.Load(core.Boxing, ki.H.Addr+16, true)
		idx := vm.normIndex(ki.V, len(l.Items), "list index out of range")
		e.Load(core.Execute, l.H.Addr+24, true) // ob_item pointer
		e.Load(core.Execute, l.ItemAddr(idx), true)
		v := l.Items[idx]
		vm.Incref(v)
		return v
	}

	e.Load(core.FunctionResolution, o.PyType().SlotAddr(pyobj.SlotGetItem), true)
	e.CCall(core.CFunctionCall, vm.hp.getItem, indirectCCall)
	defer e.CReturn(core.CFunctionCall, indirectCCall)

	if sl, ok := k.(*pyobj.Slice); ok {
		return vm.getSlice(o, sl)
	}

	switch c := o.(type) {
	case *pyobj.Dict:
		v, found := vm.DictGet(c, k, core.Execute)
		vm.errCheck(!found)
		if !found {
			Raise("KeyError", "%s", pyobj.Repr(k))
		}
		vm.Incref(v)
		return v
	case *pyobj.List:
		n, ok := pyobj.AsInt(k)
		if !ok {
			Raise("TypeError", "list indices must be integers, not %s", pyobj.TypeName(k))
		}
		idx := vm.normIndex(n, len(c.Items), "list index out of range")
		e.Load(core.Execute, c.ItemAddr(idx), true)
		v := c.Items[idx]
		vm.Incref(v)
		return v
	case *pyobj.Tuple:
		n, ok := pyobj.AsInt(k)
		if !ok {
			Raise("TypeError", "tuple indices must be integers, not %s", pyobj.TypeName(k))
		}
		idx := vm.normIndex(n, len(c.Items), "tuple index out of range")
		e.Load(core.Execute, c.ItemAddr(idx), true)
		v := c.Items[idx]
		vm.Incref(v)
		return v
	case *pyobj.Str:
		n, ok := pyobj.AsInt(k)
		if !ok {
			Raise("TypeError", "string indices must be integers, not %s", pyobj.TypeName(k))
		}
		idx := vm.normIndex(n, len(c.V), "string index out of range")
		e.Load(core.Execute, c.DataAddr+uint64(idx), true)
		// CPython's one-character string cache.
		return vm.charStr(c.V[idx])
	}
	Raise("TypeError", "'%s' object is not subscriptable", pyobj.TypeName(o))
	return nil
}

// charStr returns the interned single-character string for b.
func (vm *VM) charStr(b byte) *pyobj.Str {
	s := vm.Intern(string(b))
	vm.Incref(s)
	return s
}

// normIndex applies Python's negative-index rule with a bounds check.
func (vm *VM) normIndex(n int64, length int, msg string) int {
	vm.Eng.ALU(core.ErrorCheck, false)
	vm.Eng.Branch(core.ErrorCheck, n < 0)
	if n < 0 {
		n += int64(length)
	}
	vm.errCheck(n < 0 || n >= int64(length))
	if n < 0 || n >= int64(length) {
		Raise("IndexError", "%s", msg)
	}
	return int(n)
}

// sliceBounds resolves a slice object against a sequence length (step 1
// and -1 only; extended steps resolve element by element).
func (vm *VM) sliceBounds(sl *pyobj.Slice, length int) (start, stop, step int) {
	step = 1
	if _, isNone := sl.Step.(*pyobj.None); !isNone {
		n, ok := pyobj.AsInt(sl.Step)
		if !ok || n == 0 {
			Raise("ValueError", "slice step must be a non-zero integer")
		}
		step = int(n)
	}
	lo, hasLo := int64(0), false
	if _, isNone := sl.Start.(*pyobj.None); !isNone {
		n, ok := pyobj.AsInt(sl.Start)
		if !ok {
			Raise("TypeError", "slice indices must be integers")
		}
		lo, hasLo = n, true
	}
	hi, hasHi := int64(0), false
	if _, isNone := sl.Stop.(*pyobj.None); !isNone {
		n, ok := pyobj.AsInt(sl.Stop)
		if !ok {
			Raise("TypeError", "slice indices must be integers")
		}
		hi, hasHi = n, true
	}
	clamp := func(v int64) int {
		if v < 0 {
			v += int64(length)
		}
		if v < 0 {
			v = 0
		}
		if v > int64(length) {
			v = int64(length)
		}
		return int(v)
	}
	if step > 0 {
		start, stop = 0, length
		if hasLo {
			start = clamp(lo)
		}
		if hasHi {
			stop = clamp(hi)
		}
	} else {
		start, stop = length-1, -1
		if hasLo {
			start = clamp(lo)
			if lo >= int64(length) {
				start = length - 1
			}
		}
		if hasHi {
			if hi < 0 && hi+int64(length) < 0 {
				stop = -1
			} else {
				stop = clamp(hi)
				if hasHi && hi < 0 {
					stop = int(hi + int64(length))
				}
			}
		}
	}
	vm.Eng.ALUn(core.Execute, 3)
	return start, stop, step
}

// getSlice materializes o[lo:hi:step] as a new sequence.
func (vm *VM) getSlice(o pyobj.Object, sl *pyobj.Slice) pyobj.Object {
	switch c := o.(type) {
	case *pyobj.List:
		start, stop, step := vm.sliceBounds(sl, len(c.Items))
		items := sliceIndices(start, stop, step, func(i int) pyobj.Object {
			vm.Eng.Load(core.Execute, c.ItemAddr(i), false)
			vm.Incref(c.Items[i])
			return c.Items[i]
		})
		return vm.NewList(items)
	case *pyobj.Tuple:
		start, stop, step := vm.sliceBounds(sl, len(c.Items))
		items := sliceIndices(start, stop, step, func(i int) pyobj.Object {
			vm.Eng.Load(core.Execute, c.ItemAddr(i), false)
			vm.Incref(c.Items[i])
			return c.Items[i]
		})
		return vm.NewTuple(items)
	case *pyobj.Str:
		start, stop, step := vm.sliceBounds(sl, len(c.V))
		if step == 1 {
			if start > stop {
				start = stop
			}
			vm.emitStrScan(c, stop-start)
			return vm.NewStr(c.V[start:stop])
		}
		var b []byte
		for i := start; (step > 0 && i < stop) || (step < 0 && i > stop); i += step {
			b = append(b, c.V[i])
		}
		vm.emitStrScan(c, len(b))
		return vm.NewStr(string(b))
	}
	Raise("TypeError", "'%s' object is not sliceable", pyobj.TypeName(o))
	return nil
}

func sliceIndices(start, stop, step int, get func(int) pyobj.Object) []pyobj.Object {
	var items []pyobj.Object
	if step > 0 {
		for i := start; i < stop; i += step {
			items = append(items, get(i))
		}
	} else {
		for i := start; i > stop; i += step {
			items = append(items, get(i))
		}
	}
	return items
}

// SetItem implements o[k] = v with the list[int] fast path.
func (vm *VM) SetItem(o, k, v pyobj.Object) {
	e := vm.Eng
	e.Load(core.TypeCheck, o.Hdr().Addr, false)
	l, oIsList := o.(*pyobj.List)
	ki, kIsInt := k.(*pyobj.Int)
	fast := oIsList && kIsInt
	e.Branch(core.TypeCheck, fast)
	if fast {
		e.Load(core.Boxing, ki.H.Addr+16, true)
		idx := vm.normIndex(ki.V, len(l.Items), "list assignment index out of range")
		old := l.Items[idx]
		e.Store(core.Execute, l.ItemAddr(idx))
		l.Items[idx] = v
		vm.Incref(v)
		vm.barrier(l, v)
		vm.Decref(old)
		return
	}

	e.Load(core.FunctionResolution, o.PyType().SlotAddr(pyobj.SlotSetItem), true)
	e.CCall(core.CFunctionCall, vm.hp.setItem, indirectCCall)
	defer e.CReturn(core.CFunctionCall, indirectCCall)

	switch c := o.(type) {
	case *pyobj.Dict:
		vm.DictSet(c, k, v, core.Execute)
		return
	case *pyobj.List:
		n, ok := pyobj.AsInt(k)
		if !ok {
			Raise("TypeError", "list indices must be integers, not %s", pyobj.TypeName(k))
		}
		idx := vm.normIndex(n, len(c.Items), "list assignment index out of range")
		old := c.Items[idx]
		e.Store(core.Execute, c.ItemAddr(idx))
		c.Items[idx] = v
		vm.Incref(v)
		vm.barrier(c, v)
		vm.Decref(old)
		return
	}
	Raise("TypeError", "'%s' object does not support item assignment", pyobj.TypeName(o))
}

// DelItem implements del o[k].
func (vm *VM) DelItem(o, k pyobj.Object) {
	e := vm.Eng
	e.Load(core.TypeCheck, o.Hdr().Addr, false)
	e.Load(core.FunctionResolution, o.PyType().SlotAddr(pyobj.SlotSetItem), true)
	e.CCall(core.CFunctionCall, vm.hp.setItem, indirectCCall)
	defer e.CReturn(core.CFunctionCall, indirectCCall)

	switch c := o.(type) {
	case *pyobj.Dict:
		var oldKey, oldVal pyobj.Object
		if v, r, ok := c.Get(k); ok && r.Found {
			oldKey = c.Entries[r.EntryIdx].Key
			oldVal = v
		}
		res, found := c.Delete(k)
		vm.dictProbeEvents(c, res, 0, core.Execute)
		vm.errCheck(!found)
		if !found {
			Raise("KeyError", "%s", pyobj.Repr(k))
		}
		// The dict drops its references to the stored key and value.
		if oldKey != nil {
			vm.Decref(oldKey)
		}
		if oldVal != nil {
			vm.Decref(oldVal)
		}
		// Periodically compact heavily deleted dicts.
		if len(c.Entries) > 64 && c.Len()*2 < len(c.Entries) {
			c.Compact()
		}
		return
	case *pyobj.List:
		n, ok := pyobj.AsInt(k)
		if !ok {
			Raise("TypeError", "list indices must be integers")
		}
		idx := vm.normIndex(n, len(c.Items), "list index out of range")
		old := c.Items[idx]
		// Shift tail left: load+store per moved element (capped).
		moved := vm.events(len(c.Items)-idx-1, eventCap)
		for i := 0; i < moved; i++ {
			e.Load(core.Execute, c.ItemAddr(idx+i+1), false)
			e.Store(core.Execute, c.ItemAddr(idx+i))
		}
		c.Items = append(c.Items[:idx], c.Items[idx+1:]...)
		vm.Decref(old)
		return
	}
	Raise("TypeError", "'%s' object doesn't support item deletion", pyobj.TypeName(o))
}

// ListAppend grows l by v (list.append and BUILD_LIST helpers), modeling
// CPython's over-allocating realloc.
func (vm *VM) ListAppend(l *pyobj.List, v pyobj.Object) {
	e := vm.Eng
	if len(l.Items) >= l.ItemsCap {
		newCap := l.ItemsCap + l.ItemsCap/8 + 6
		oldAddr := l.ItemsAddr
		oldBytes := uint64(l.ItemsCap) * 8
		l.ItemsAddr = vm.Heap.AllocPayload(uint64(newCap)*8, core.Execute)
		l.ItemsCap = newCap
		// Copy the old element pointers (capped).
		n := vm.events(len(l.Items), eventCap)
		for i := 0; i < n; i++ {
			e.Load(core.Execute, oldAddr+uint64(i)*8, false)
			e.Store(core.Execute, l.ItemAddr(i))
		}
		vm.Heap.FreePayload(oldAddr, oldBytes)
	}
	e.Store(core.Execute, l.ItemAddr(len(l.Items)))
	e.Store(core.Execute, l.H.Addr+16) // ob_size
	l.Items = append(l.Items, v)
	vm.Incref(v)
	vm.barrier(l, v)
}
