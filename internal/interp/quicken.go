package interp

import (
	"repro/internal/core"
	"repro/internal/pycode"
	"repro/internal/pyobj"
)

// Quickening + inline caches: the interpreter-level answer to the
// paper's dominant overhead categories (name resolution, attribute
// lookup, dispatch-adjacent C helper calls). At materialize time each
// code object gets a per-VM copy of its instruction stream with
// LOAD_GLOBAL / LOAD_ATTR / STORE_ATTR rewritten to quickened forms, plus
// one monomorphic cache slot per site (pycode.Code.SiteOf). Caches are
// populated lazily by the first execution of a site; a guard failure
// falls back to the generic path, refills, and — once a site's miss
// budget is exhausted — rewrites the instruction back to its generic
// form (de-quickening), so a megamorphic or churn-heavy site stops
// paying guard costs.
//
// The hit paths are engineered to be behaviour-identical to the generic
// paths: same values, same refcount traffic, same allocations (a method
// hit still allocates the BoundMethod), same write barriers, same dict
// version bumps. Only the lookup machinery — and its micro-events — is
// elided, which is exactly what the paper's overhead model says an
// optimized interpreter saves. The 10-leg differential oracle holds the
// quickened interpreter bit-identical to the cold one.

const (
	// icMaxMisses is a site's lifetime miss budget before it is
	// de-quickened. Benign refills (a fresh module namespace, a newly
	// defined class of the same shape) reset the counter; repeated
	// invalidation of the same guard identity — globals() mutation in a
	// loop, method rebinding — exhausts it.
	icMaxMisses = 16
	// icSlotBytes is the simulated size of one cache slot (guard word,
	// version word, value pointer, spare), for guard-load addressing.
	icSlotBytes = 32
)

// ICStats counts inline-cache activity per site kind.
type ICStats struct {
	GlobalHits   uint64
	GlobalMisses uint64
	AttrHits     uint64
	AttrMisses   uint64
	MethodHits   uint64
	MethodMisses uint64
	StoreHits    uint64
	StoreMisses  uint64
	// Fills counts cache (re)populations; Invalidations counts misses
	// that found a populated slot (guard broken) plus explicit flushes;
	// Dequickened counts sites rewritten back to generic form; Sites
	// counts cache slots allocated at materialize time.
	Fills         uint64
	Invalidations uint64
	Dequickened   uint64
	Sites         uint64
	// SeedFills counts cache slots warm-started from a portable IC seed
	// (icseed.go); SeedDrops counts seed entries discarded as stale,
	// out of range, or unresolvable — a dropped entry just leaves the
	// site cold, exactly as if it had never been seeded.
	SeedFills uint64
	SeedDrops uint64

	// Tier-2 counters. Poly* covers polymorphic stub traffic (a hit
	// anywhere in the chain; a miss that exhausted it); PolyPromotions
	// counts mono→poly and chain-extension transitions. Fused counts
	// pairs rewritten into superinstructions, Defused the reverse
	// rewrites; FusedHits/FusedMisses count fused fast-path executions
	// and their per-execution deopts. IntFast* counts the speculative
	// unboxed-int paths (a miss is a deopt to the generic handler).
	PolyHits       uint64
	PolyMisses     uint64
	PolyPromotions uint64
	Fused          uint64
	Defused        uint64
	FusedHits      uint64
	FusedMisses    uint64
	IntFastHits    uint64
	IntFastMisses  uint64
}

// Hits sums hit counters across site kinds.
func (s ICStats) Hits() uint64 {
	return s.GlobalHits + s.AttrHits + s.MethodHits + s.StoreHits +
		s.PolyHits + s.FusedHits + s.IntFastHits
}

// Misses sums miss counters across site kinds.
func (s ICStats) Misses() uint64 {
	return s.GlobalMisses + s.AttrMisses + s.MethodMisses + s.StoreMisses +
		s.PolyMisses + s.FusedMisses + s.IntFastMisses
}

// HitRate returns hits / (hits + misses), or 0 with no activity.
func (s ICStats) HitRate() float64 {
	h, m := s.Hits(), s.Misses()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// SetQuicken enables or disables bytecode quickening for code objects
// materialized from now on; disabling also drops any quickened copies
// already built (frames currently executing keep the stream they
// started with). Call before running for a fully cold interpreter.
func (vm *VM) SetQuicken(on bool) {
	vm.quicken = on
	if !on {
		for _, cd := range vm.constCache {
			cd.quick, cd.caches, cd.fused = nil, nil, nil
		}
	}
}

// SetPolyICs gates tier-2 polymorphic promotion: when off, a
// monomorphic site that misses refills monomorphically (tier-1
// behaviour, the difftest poly-cold leg).
func (vm *VM) SetPolyICs(on bool) { vm.polyICs = on }

// SetFusion gates the superinstruction pass for code materialized from
// now on; disabling also de-fuses streams already built.
func (vm *VM) SetFusion(on bool) {
	vm.fusion = on
	if !on {
		for _, cd := range vm.constCache {
			vm.defuseAll(cd)
		}
	}
}

// SetIntFast gates the speculative unboxed-int rewrites for code
// materialized from now on (already-rewritten sites deopt per execution
// once their miss budget de-quickens them).
func (vm *VM) SetIntFast(on bool) { vm.intFast = on }

// SetFuseFlushEvery arms fusion churn: after every n tier-2 fast-path
// executions, every fusable pair is de-fused (odd trips) or re-fused
// (even trips). The differential oracle's fusion-flush leg uses it to
// prove mid-run de-fusion/re-fusion cannot change program behaviour.
// n == 0 disables.
func (vm *VM) SetFuseFlushEvery(n uint64) { vm.fuseFlushEvery = n }

// SetIntFastMaxAbs caps the operand magnitude the speculative int fast
// path accepts; operands beyond the cap take the deopt path exactly as
// a real overflow would. The difftest intfast-overflow leg sets 1 to
// force constant deopting. 0 restores the default (int64 overflow only).
func (vm *VM) SetIntFastMaxAbs(v int64) { vm.intFastMaxAbs = v }

// Quickened reports whether bytecode quickening is enabled.
func (vm *VM) Quickened() bool { return vm.quicken }

// SetICFlushEvery arms periodic cache invalidation: after every n cache
// fills, every inline cache in the VM is flushed. The differential
// oracle's churn leg uses it to prove mid-run invalidation cannot change
// program behaviour. n == 0 disables.
func (vm *VM) SetICFlushEvery(n uint64) { vm.icFlushEvery = n }

// FlushICs invalidates every populated inline cache in the VM (guard
// state is rebuilt lazily on next execution). Miss budgets are reset
// too: a flush is an external event, not evidence of a bad site.
func (vm *VM) FlushICs() {
	for _, cd := range vm.constCache {
		for i := range cd.caches {
			if cd.caches[i].State != pyobj.ICEmpty {
				cd.caches[i].Reset()
				vm.Stats.IC.Invalidations++
			} else {
				cd.caches[i].Misses = 0
			}
		}
	}
}

// quickenCode builds cd's quickened instruction copy and cache slots.
// Per-VM on purpose: code objects are shared across concurrently
// executing VMs (warm worker pools run one compiled program on many
// workers), so the shared Code must stay immutable.
func (vm *VM) quickenCode(code *pycode.Code, cd *codeData) {
	if !vm.quicken || code.NumICSites == 0 || len(code.SiteOf) != len(code.Code) {
		return
	}
	quick := make([]pycode.Instr, len(code.Code))
	copy(quick, code.Code)
	for i, in := range code.Code {
		if code.SiteOf[i] < 0 {
			continue
		}
		if q, ok := pycode.QuickenedOf(in.Op); ok {
			quick[i].Op = q
		}
	}
	cd.quick = quick
	cd.caches = make([]pyobj.ICache, code.NumICSites)
	cd.icAddr = vm.dataAlloc(uint64(code.NumICSites)*icSlotBytes + 16)
	vm.Stats.IC.Sites += uint64(code.NumICSites)
	// Portable IC seed import (icseed.go): warm-start the fresh cache
	// slots from a donor VM's observed shapes. Before the tier-2 passes
	// so a dequicken hint lands before fusion can claim the site.
	if vm.seedUnits != nil {
		vm.seedQuickened(code, cd)
	}
	// Tier-2 passes. Fusion first (it claims COMPARE_OP/LOAD_ATTR pairs
	// in their base form), then the speculative int rewrites over
	// whatever arithmetic sites remain unfused. Fusion never runs under
	// a tracer: a recorded trace must see one generic op per dispatch.
	if vm.fusion && vm.tracer == nil {
		vm.fuseCode(code, cd)
	}
	if vm.intFast {
		vm.intFastCode(code, cd)
	}
}

// icGuardEvents emits a hit path's guard check: one load of the cache
// slot, the compare, and the (predictable) guard branch — against the
// generic path's C helper call plus hash/probe traffic.
func (vm *VM) icGuardEvents(f *pyobj.Frame, site int32) {
	if !vm.Eng.Armed() {
		return
	}
	a := f.ICAddr + uint64(site)*icSlotBytes
	vm.Eng.Load(core.NameResolution, a, true)
	vm.Eng.ALU(core.NameResolution, true)
	vm.Eng.Branch(core.NameResolution, true)
}

// icMiss records a guard failure at site pc, de-quickening the
// instruction once the site's miss budget is exhausted. Returns whether
// the site is still quickened (a de-quickened site is never refilled).
func (vm *VM) icMiss(f *pyobj.Frame, pc int, c *pyobj.ICache) bool {
	if c.State != pyobj.ICEmpty {
		vm.Stats.IC.Invalidations++
	}
	if c.Misses < 255 {
		c.Misses++
	}
	if c.Misses >= icMaxMisses {
		in := f.Insns[pc]
		f.Insns[pc] = pycode.Instr{Op: in.Op.Dequicken(), Arg: in.Arg}
		c.Reset()
		vm.Stats.IC.Dequickened++
		return false
	}
	return true
}

// icRefill resets c for a new fill, preserving the miss budget unless
// the miss was benign (first fill, or a guard identity that legitimately
// changed — a fresh module namespace, a newly defined class — rather
// than churn on the same identity). The caller sets the new state.
func icRefill(c *pyobj.ICache, benign bool) {
	m := c.Misses
	c.Reset()
	if !benign {
		c.Misses = m
	}
}

// noteFill does post-fill bookkeeping, including the churn leg's
// periodic flush (which may immediately invalidate the fill it follows —
// worst-case invalidation pressure, by design).
func (vm *VM) noteFill() {
	vm.Stats.IC.Fills++
	vm.icFills++
	if vm.icFlushEvery != 0 && vm.icFills%vm.icFlushEvery == 0 {
		vm.FlushICs()
	}
}

// ---- LOAD_GLOBAL_IC ----

// loadGlobalIC executes a quickened LOAD_GLOBAL: a dict-version-guarded
// cache of the resolved binding. Bindings that resolved in builtins also
// guard the globals version — the name appearing in globals later must
// shadow the cached builtin.
func (vm *VM) loadGlobalIC(f *pyobj.Frame, in pycode.Instr, pc int) {
	site := f.Code.SiteOf[pc]
	c := &f.Caches[site]
	g := f.Globals
	switch c.State {
	case pyobj.ICGlobal:
		if c.Dict == g && c.Ver == g.Version {
			vm.icGuardEvents(f, site)
			vm.Eng.Load(core.NameResolution, f.ICAddr+uint64(site)*icSlotBytes+8, true)
			v := c.Value
			vm.Incref(v)
			vm.push(f, v)
			vm.Stats.IC.GlobalHits++
			return
		}
	case pyobj.ICGlobalBuiltin:
		if c.Dict == g && c.Ver == g.Version && c.BVer == vm.Builtins.Version {
			vm.icGuardEvents(f, site)
			vm.Eng.ALU(core.NameResolution, true) // builtins-version compare
			vm.Eng.Load(core.NameResolution, f.ICAddr+uint64(site)*icSlotBytes+8, true)
			v := c.Value
			vm.Incref(v)
			vm.push(f, v)
			vm.Stats.IC.GlobalHits++
			return
		}
	}

	// Miss: run the generic lookup (full events; may raise NameError,
	// in which case the miss stays counted and the cache stays cold),
	// then refill from pure lookups.
	vm.Stats.IC.GlobalMisses++
	quick := vm.icMiss(f, pc, c)
	vm.loadName(f, in)
	if !quick {
		return
	}
	name := f.Code.Names[in.Arg]
	benign := c.State == pyobj.ICEmpty || c.Dict != g
	if v, _, ok := g.GetStr(name); ok {
		icRefill(c, benign)
		c.State = pyobj.ICGlobal
		c.Dict, c.Ver = g, g.Version
		c.Value = v
		vm.noteFill()
	} else if v, _, ok := vm.Builtins.GetStr(name); ok {
		icRefill(c, benign)
		c.State = pyobj.ICGlobalBuiltin
		c.Dict, c.Ver = g, g.Version
		c.BVer = vm.Builtins.Version
		c.Value = v
		vm.noteFill()
	}
}

// ---- LOAD_ATTR_IC ----

// loadAttrIC executes a quickened LOAD_ATTR. Four monomorphic shapes are
// cached: an instance-dict data slot (entry-index + key layout hint,
// valid across same-shaped instances), a class-chain resolution (class
// identity + chain version; function results still allocate their bound
// method per hit, as CPython does), a module binding (dict version), and
// a builtin type method (TypeID against the immutable type-method
// table). Returns a new reference.
func (vm *VM) loadAttrIC(f *pyobj.Frame, obj pyobj.Object, in pycode.Instr, pc int) pyobj.Object {
	site := f.Code.SiteOf[pc]
	c := &f.Caches[site]
	name := f.Code.Names[in.Arg]

	if c.State == pyobj.ICPoly {
		if v, ok := vm.attrPolyLookup(f, obj, c, site, name); ok {
			return v
		}
	} else if v, method, ok := vm.attrCacheHit(f, obj, c, site, name); ok {
		if method {
			vm.Stats.IC.MethodHits++
		} else {
			vm.Stats.IC.AttrHits++
		}
		return v
	}

	// Miss: generic path (full events; may raise AttributeError), then
	// refill — possibly promoting the site to a polymorphic stub. The
	// miss is provisionally counted as an attribute miss and reclassified
	// if the fill resolves to a method.
	if c.State == pyobj.ICPoly {
		vm.Stats.IC.PolyMisses++
	} else {
		vm.Stats.IC.AttrMisses++
	}
	wasPoly := c.State == pyobj.ICPoly
	quick := vm.icMiss(f, pc, c)
	v := vm.getAttr(obj, name)
	if quick {
		if method, ok := vm.refillAttrAfterMiss(c, obj, name); ok {
			vm.noteFill()
			if method && !wasPoly {
				vm.Stats.IC.AttrMisses--
				vm.Stats.IC.MethodMisses++
			}
		}
	}
	return v
}

// attrCacheHit attempts the guarded hit of one monomorphic cache entry
// for a LOAD_ATTR of obj. On a hit it emits the guard events, performs
// the generic path's exact object-model work (bound-method allocation
// included), and returns the value as a new reference plus whether the
// entry was a method resolution. On a guard mismatch it emits nothing
// and reports false.
func (vm *VM) attrCacheHit(f *pyobj.Frame, obj pyobj.Object, c *pyobj.ICache, site int32, name string) (v pyobj.Object, method, ok bool) {
	e := vm.Eng
	switch o := obj.(type) {
	case *pyobj.Instance:
		switch c.State {
		case pyobj.ICAttrSlot:
			d := o.Dict
			if idx := int(c.EntryIdx); idx < len(d.Entries) && d.Entries[idx].Enc == c.Enc {
				e.Load(core.TypeCheck, obj.Hdr().Addr, false)
				e.Branch(core.TypeCheck, true)
				vm.icGuardEvents(f, site)
				ent := &d.Entries[idx]
				e.Load(core.NameResolution, d.SlotAddr(ent.Hash, 0)+8, true)
				v := ent.Value
				vm.Incref(v)
				return v, false, true
			}
		case pyobj.ICAttrClass, pyobj.ICAttrMethod:
			if c.Class == o.Class && c.CVer == o.Class.ChainVersion() {
				// The instance dict may shadow a class attribute: one
				// cheap membership probe (miss expected and modeled as a
				// single slot touch) before trusting the class cache.
				if _, _, shadowed := o.Dict.GetStr(name); !shadowed {
					e.Load(core.TypeCheck, obj.Hdr().Addr, false)
					e.Branch(core.TypeCheck, true)
					vm.icGuardEvents(f, site)
					e.Load(core.NameResolution, o.Dict.TableAddr, true)
					e.Branch(core.NameResolution, true)
					if c.State == pyobj.ICAttrMethod {
						// Bound-method allocation: identical churn to the
						// generic path — the cache saves the lookup, not
						// the object model.
						bm := &pyobj.BoundMethod{Self: o, Fn: c.Fn}
						vm.Heap.Allocate(bm, core.ObjectAllocation)
						e.Store(core.FunctionSetup, bm.H.Addr+16)
						e.Store(core.FunctionSetup, bm.H.Addr+24)
						vm.Incref(o)
						vm.Incref(c.Fn)
						vm.barrier(bm, o)
						vm.barrier(bm, c.Fn)
						return bm, true, true
					}
					v := c.Value
					vm.Incref(v)
					return v, false, true
				}
			}
		}
	case *pyobj.Module:
		if c.State == pyobj.ICAttrModule && c.Dict == o.Dict && c.Ver == o.Dict.Version {
			e.Load(core.TypeCheck, obj.Hdr().Addr, false)
			e.Branch(core.TypeCheck, true)
			vm.icGuardEvents(f, site)
			e.Load(core.NameResolution, f.ICAddr+uint64(site)*icSlotBytes+8, true)
			v := c.Value
			vm.Incref(v)
			return v, false, true
		}
	default:
		if c.State == pyobj.ICAttrType && obj.PyType().ID == c.TypeID {
			e.Load(core.TypeCheck, obj.Hdr().Addr, false)
			e.Branch(core.TypeCheck, true)
			vm.icGuardEvents(f, site)
			b := &pyobj.Builtin{Name: name, ID: c.BID, CodeAddr: vm.builtinImpls[c.BID].pc, Self: obj}
			vm.Heap.Allocate(b, core.ObjectAllocation)
			e.Store(core.FunctionSetup, b.H.Addr+16)
			vm.Incref(obj)
			vm.barrier(b, obj)
			return b, true, true
		}
	}
	return nil, false, false
}

// fillAttrCache repopulates c from pure (event-free) lookups after the
// generic path succeeded. Reports whether the fill happened and whether
// the site resolved to a method. Class receivers are never cached: class
// attribute access from user code is rare and class dicts mutate during
// class-body execution.
func (vm *VM) fillAttrCache(c *pyobj.ICache, obj pyobj.Object, name string) (method, ok bool) {
	switch o := obj.(type) {
	case *pyobj.Instance:
		if _, res, found := o.Dict.GetStr(name); found {
			icRefill(c, c.State == pyobj.ICEmpty)
			c.State = pyobj.ICAttrSlot
			c.Enc = "s:" + name
			c.EntryIdx = int32(res.EntryIdx)
			return false, true
		}
		if v, _, found := o.Class.Lookup(name); found {
			benign := c.State == pyobj.ICEmpty || c.Class != o.Class
			icRefill(c, benign)
			c.Class = o.Class
			c.CVer = o.Class.ChainVersion()
			if fn, isFn := v.(*pyobj.Func); isFn {
				c.State = pyobj.ICAttrMethod
				c.Fn = fn
				return true, true
			}
			c.State = pyobj.ICAttrClass
			c.Value = v
			return false, true
		}
	case *pyobj.Module:
		if v, _, found := o.Dict.GetStr(name); found {
			icRefill(c, c.State == pyobj.ICEmpty || c.Dict != o.Dict)
			c.State = pyobj.ICAttrModule
			c.Dict, c.Ver = o.Dict, o.Dict.Version
			c.Value = v
			return false, true
		}
	case *pyobj.Class:
		// Uncached by design.
	default:
		if id, found := vm.lookupTypeMethod(obj.PyType().ID, name); found {
			icRefill(c, c.State == pyobj.ICEmpty)
			c.State = pyobj.ICAttrType
			c.TypeID = obj.PyType().ID
			c.BID = id
			return true, true
		}
	}
	return false, false
}

// ---- STORE_ATTR_IC ----

// storeAttrIC executes a quickened STORE_ATTR: an update-in-place of an
// existing instance-dict entry under the same layout hint as
// ICAttrSlot. Inserts (first store of a fresh attribute) always take the
// generic path — an insert moves dict state the hint cannot describe.
func (vm *VM) storeAttrIC(f *pyobj.Frame, obj pyobj.Object, in pycode.Instr, pc int, v pyobj.Object) {
	site := f.Code.SiteOf[pc]
	c := &f.Caches[site]
	if c.State == pyobj.ICPoly {
		if vm.storePolyLookup(f, obj, c, site, v) {
			return
		}
	} else if vm.storeCacheHit(f, obj, c, site, v) {
		vm.Stats.IC.StoreHits++
		return
	}

	if c.State == pyobj.ICPoly {
		vm.Stats.IC.PolyMisses++
	} else {
		vm.Stats.IC.StoreMisses++
	}
	quick := vm.icMiss(f, pc, c)
	vm.setAttr(obj, f.Code.Names[in.Arg], v)
	if !quick {
		return
	}
	if vm.refillStoreAfterMiss(c, obj, f.Code.Names[in.Arg]) {
		vm.noteFill()
	}
}

// storeCacheHit attempts the guarded in-place update of one monomorphic
// ICStoreSlot entry. On a hit it mirrors the generic overwrite exactly:
// old-value load, new reference, version bump, store, write barrier.
func (vm *VM) storeCacheHit(f *pyobj.Frame, obj pyobj.Object, c *pyobj.ICache, site int32, v pyobj.Object) bool {
	o, isInst := obj.(*pyobj.Instance)
	if !isInst || c.State != pyobj.ICStoreSlot {
		return false
	}
	d := o.Dict
	idx := int(c.EntryIdx)
	if idx >= len(d.Entries) || d.Entries[idx].Enc != c.Enc {
		return false
	}
	e := vm.Eng
	e.Load(core.TypeCheck, obj.Hdr().Addr, false)
	e.Branch(core.TypeCheck, true)
	vm.icGuardEvents(f, site)
	ent := &d.Entries[idx]
	slot := d.SlotAddr(ent.Hash, 0) + 8
	e.Load(core.NameResolution, slot, true)
	d.Version++
	ent.Value = v
	vm.Incref(v)
	e.Store(core.NameResolution, slot)
	vm.barrier(d, v)
	return true
}
