package gc

import (
	"repro/internal/core"
	"repro/internal/pyobj"
)

// WriteBarrier records that owner may now reference target. Under
// generational collection, a store of a young reference into an old object
// inserts the owner into the remembered set (PyPy's
// write_barrier/stm-style card marking, simplified to object granularity).
// A no-op under reference counting.
func (h *Heap) WriteBarrier(owner, target pyobj.Object) {
	if h.cfg.Kind != Generational || owner == nil || target == nil {
		return
	}
	oh := owner.Hdr()
	if !oh.Old || oh.Remembered {
		return
	}
	th := target.Hdr()
	if th.Old || th.Immortal {
		return
	}
	// Barrier fast path: flag load + branch, then the slow path's
	// remembered-set append.
	h.eng.Load(core.GarbageCollection, oh.Addr+8, false)
	h.eng.Branch(core.GarbageCollection, true)
	h.eng.Store(core.GarbageCollection, oh.Addr+8)
	oh.Remembered = true
	h.remember = append(h.remember, owner)
	h.Stats.BarrierHits++
}

// CollectMinor performs a copying collection of the nursery: survivors are
// promoted to the old space (their payloads move with them), the nursery
// bump pointer rewinds, and the remembered set is rescanned and cleared.
func (h *Heap) CollectMinor() {
	if h.cfg.Kind != Generational {
		return
	}
	if h.tick != nil {
		// Deadline poll at the collection safe point, before any heap
		// mutation: allocation-bound hostile programs spend most of their
		// time here, so the budget must be enforceable mid-GC.
		h.tick()
	}
	h.Stats.MinorGCs++
	prevPhase := h.eng.SetPhase(core.PhaseGC)
	h.eng.Call(core.GarbageCollection, h.pcMinor)

	// visit copies a young object and queues it for child scanning.
	var queue []pyobj.Object
	visit := func(o pyobj.Object) {
		if o == nil {
			return
		}
		hd := o.Hdr()
		if hd.Old || hd.Immortal || hd.Mark {
			return
		}
		hd.Mark = true
		queue = append(queue, o)
	}

	// Roots: VM-provided roots plus the remembered set's children.
	if h.root != nil {
		h.root.Roots(func(o pyobj.Object) {
			// Root scan: one load per root slot.
			if o != nil {
				h.eng.Load(core.GarbageCollection, o.Hdr().Addr, false)
			}
			visit(o)
		})
	}
	for _, old := range h.remember {
		oh := old.Hdr()
		h.eng.Load(core.GarbageCollection, oh.Addr, false)
		pyobj.Children(old, func(c pyobj.Object) {
			h.eng.ALU(core.GarbageCollection, true)
			visit(c)
		})
		oh.Remembered = false
	}
	h.remember = h.remember[:0]

	// Cheney-style scan: copy each reached object to the old space and
	// scan its children.
	var survivors []pyobj.Object
	for len(queue) > 0 {
		o := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		h.copyToOld(o)
		survivors = append(survivors, o)
		pyobj.Children(o, func(c pyobj.Object) {
			visit(c)
		})
	}

	// Clear marks and promote.
	for _, o := range survivors {
		o.Hdr().Mark = false
		h.oldObjs = append(h.oldObjs, o)
	}
	h.Stats.Survivors += uint64(len(survivors))

	// Dead young objects are simply abandoned; the nursery rewinds.
	h.young = h.young[:0]
	h.nursery.Reset()

	h.eng.Ret(core.GarbageCollection)
	h.eng.SetPhase(prevPhase)
	h.maybeMajor()
}

// copyToOld moves o (and its variable payload) from the nursery to the
// old space, emitting the copy traffic.
func (h *Heap) copyToOld(o pyobj.Object) {
	hd := o.Hdr()
	size := uint64(hd.Size)
	newAddr, _ := h.oldFree.Alloc(size)
	h.copyBytes(hd.Addr, newAddr, size)
	hd.Addr = newAddr
	hd.Old = true
	h.oldAlloc += size
	h.Stats.BytesCopied += size

	if p := pyobj.PayloadSize(o); p > 0 {
		oldPayload := payloadAddr(o)
		// Payloads already placed in the old space (big allocations)
		// stay put.
		if oldPayload != 0 && oldPayload < h.old.Base() {
			np, _ := h.oldFree.Alloc(p)
			h.copyBytes(oldPayload, np, p)
			setPayloadAddr(o, np)
			h.oldAlloc += p
			h.Stats.BytesCopied += p
		}
	}
}

// copyBytes emits the load/store traffic of copying n bytes (word
// granularity, capped to bound event volume for huge payloads; the cache
// effect of a large copy saturates well before the cap).
func (h *Heap) copyBytes(src, dst, n uint64) {
	if !h.eng.Armed() {
		return
	}
	words := (n + 7) / 8
	const maxWords = 4096
	step := uint64(1)
	if words > maxWords {
		step = words / maxWords
		words = maxWords
	}
	for i := uint64(0); i < words; i++ {
		off := i * 8 * step
		h.eng.Load(core.GarbageCollection, src+off, false)
		h.eng.Store(core.GarbageCollection, dst+off)
	}
}

func setPayloadAddr(o pyobj.Object, addr uint64) {
	switch v := o.(type) {
	case *pyobj.List:
		v.ItemsAddr = addr
	case *pyobj.Dict:
		v.TableAddr = addr
	case *pyobj.Str:
		v.DataAddr = addr
	}
}

// maybeMajor triggers a major collection when old-space growth passes the
// configured factor.
func (h *Heap) maybeMajor() {
	if h.cfg.Kind != Generational {
		return
	}
	threshold := uint64(float64(h.liveAfter)*h.cfg.MajorGrowthFactor) + 4*h.cfg.NurseryBytes
	if h.oldAlloc > threshold {
		h.CollectMajor()
	}
}

// CollectMajor performs a full mark-sweep collection of the old space.
func (h *Heap) CollectMajor() {
	if h.cfg.Kind != Generational {
		return
	}
	if h.tick != nil {
		h.tick()
	}
	h.Stats.MajorGCs++
	prevPhase := h.eng.SetPhase(core.PhaseGC)
	h.eng.Call(core.GarbageCollection, h.pcMajor)

	// Mark from roots across the whole heap.
	var stack []pyobj.Object
	visit := func(o pyobj.Object) {
		if o == nil {
			return
		}
		hd := o.Hdr()
		if hd.Immortal || hd.Mark {
			return
		}
		hd.Mark = true
		stack = append(stack, o)
	}
	if h.root != nil {
		h.root.Roots(func(o pyobj.Object) {
			if o != nil {
				h.eng.Load(core.GarbageCollection, o.Hdr().Addr, false)
			}
			visit(o)
		})
	}
	for len(stack) > 0 {
		o := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		// Mark: header load + mark store.
		h.eng.Load(core.GarbageCollection, o.Hdr().Addr, false)
		h.eng.Store(core.GarbageCollection, o.Hdr().Addr+8)
		pyobj.Children(o, func(c pyobj.Object) { visit(c) })
	}

	// Sweep the old-object list: free unmarked, unmark survivors.
	live := h.oldObjs[:0]
	var liveBytes uint64
	for _, o := range h.oldObjs {
		hd := o.Hdr()
		h.eng.Load(core.GarbageCollection, hd.Addr+8, true)
		h.eng.Branch(core.GarbageCollection, hd.Mark)
		if hd.Mark {
			hd.Mark = false
			live = append(live, o)
			liveBytes += uint64(hd.Size)
			continue
		}
		// Free object and payload blocks.
		if p := pyobj.PayloadSize(o); p > 0 {
			if a := payloadAddr(o); a >= h.old.Base() {
				h.oldFree.Free(a, p)
			}
		}
		h.oldFree.Free(hd.Addr, uint64(hd.Size))
		h.eng.Store(core.GarbageCollection, hd.Addr)
		h.Stats.Frees++
	}
	// Young survivors marked during the walk keep their Mark cleared via
	// the remembered young list; clear any stragglers among nursery
	// objects.
	for _, o := range h.young {
		o.Hdr().Mark = false
	}
	h.oldObjs = live
	h.liveAfter = liveBytes
	h.oldAlloc = 0

	h.eng.Ret(core.GarbageCollection)
	h.eng.SetPhase(prevPhase)
}

// YoungCount returns the number of objects currently in the nursery
// (testing/diagnostics).
func (h *Heap) YoungCount() int { return len(h.young) }

// OldCount returns the number of objects tracked in the old space.
func (h *Heap) OldCount() int { return len(h.oldObjs) }
