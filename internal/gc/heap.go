// Package gc implements the simulated Python heap and its two collectors:
//
//   - CPython mode: reference counting with immediate free and pymalloc-
//     style free lists. Refcount maintenance is charged to the garbage-
//     collection category; freed-then-reallocated blocks produce the
//     object-allocation overhead and keep the reference stream cache-hot.
//   - PyPy mode: generational collection with a bump-pointer copying
//     nursery and a mark-sweep old space, plus a remembered-set write
//     barrier. The nursery size is the central knob of the paper's
//     hardware-interaction study (Figs 10-17).
//
// All heap traffic is emitted as micro-events at simulated addresses, so
// the cache hierarchy observes allocation, refcounting, tracing, and
// copying exactly as Zsim observed CPython's and PyPy's.
package gc

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/emit"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/pyobj"
)

// Kind selects the memory manager.
type Kind uint8

// Memory-manager kinds.
const (
	// RefCount is CPython-style reference counting.
	RefCount Kind = iota
	// Generational is PyPy-style nursery + mark-sweep old space.
	Generational
)

// Config parameterizes the heap.
type Config struct {
	// Kind selects the collector.
	Kind Kind
	// NurseryBytes is the nursery capacity (Generational only).
	NurseryBytes uint64
	// MajorGrowthFactor triggers a major collection when old-space live
	// bytes grow past factor * bytes live after the previous major
	// collection (PyPy default ~1.82).
	MajorGrowthFactor float64
	// BigObjectBytes routes allocations of at least this size directly
	// to the old space (0 = nursery/4).
	BigObjectBytes uint64
}

// DefaultGenConfig returns a PyPy-like generational configuration with the
// given nursery size.
func DefaultGenConfig(nursery uint64) Config {
	return Config{Kind: Generational, NurseryBytes: nursery, MajorGrowthFactor: 1.82}
}

// DefaultRefCountConfig returns the CPython-like configuration.
func DefaultRefCountConfig() Config { return Config{Kind: RefCount} }

// RootProvider enumerates the GC roots (live frames, module globals,
// internal registries).
type RootProvider interface {
	Roots(visit func(pyobj.Object))
}

// RootFunc adapts a function to RootProvider.
type RootFunc func(visit func(pyobj.Object))

// Roots implements RootProvider.
func (f RootFunc) Roots(visit func(pyobj.Object)) { f(visit) }

// Stats counts collector activity.
type Stats struct {
	Allocations   uint64
	BytesAlloc    uint64
	MinorGCs      uint64
	MajorGCs      uint64
	BytesCopied   uint64
	Survivors     uint64
	Frees         uint64
	BarrierHits   uint64
	BigAllocs     uint64
	FreelistReuse uint64
	// PayloadAllocs counts variable-size payload blocks (list item
	// arrays, dict tables, string data) handed out by AllocPayload.
	// Frees covers both object and payload releases, so the balance
	// invariant is Frees <= Allocations + PayloadAllocs.
	PayloadAllocs uint64
	// Increfs/Decrefs count reference-count operations (RefCount mode).
	// Every allocation starts at RC=1, so at any point
	// Decrefs <= Increfs + Allocations must hold.
	Increfs uint64
	Decrefs uint64
	// BadDecrefs counts decrefs observed on an object whose reference
	// count was already <= 0 — always a refcounting bug. The differential
	// oracle asserts this stays zero.
	BadDecrefs uint64
}

// Heap is the simulated Python heap.
type Heap struct {
	cfg  Config
	eng  *emit.Engine
	root RootProvider

	// RefCount mode.
	rcArena *mem.Region
	rcFree  *mem.FreeList

	// Generational mode.
	nursery   *mem.Region
	old       *mem.Region
	oldFree   *mem.FreeList
	young     []pyobj.Object // objects currently allocated in the nursery
	oldObjs   []pyobj.Object // objects in the old space
	remember  []pyobj.Object // old objects that may reference young ones
	liveAfter uint64         // old-space live bytes after last major GC
	oldAlloc  uint64         // old-space bytes allocated since last major GC

	// Code addresses of the allocator / collector routines.
	pcAlloc, pcMinor, pcMajor, pcDealloc, pcBarrier uint64

	// Resource governor state. limit caps the live heap footprint; oomFn
	// (installed by the VM) surfaces exhaustion as an in-language
	// MemoryError; tick (also VM-installed) polls the execution deadline
	// at collection entry so a runaway GC cannot outlive the budget;
	// grace suspends enforcement while the VM reconstructs state on an
	// error path (deopt boxing must never itself OOM).
	limit       uint64
	oomFn       func(need uint64)
	tick        func()
	grace       int
	faultInj    *faults.Injector
	inEmergency bool

	Stats Stats
}

// OutOfMemoryError reports heap-limit exhaustion when no OOM handler is
// installed (library use without a VM).
type OutOfMemoryError struct {
	Need, Limit, Used uint64
}

func (e *OutOfMemoryError) Error() string {
	return fmt.Sprintf("gc: heap limit exhausted (need %d, used %d of %d)",
		e.Need, e.Used, e.Limit)
}

// MinNursery is the smallest usable nursery: anything below can't hold a
// single large-ish object plus copy headroom and would livelock the minor
// collector.
const MinNursery = 4 << 10

// ConfigError reports an invalid heap configuration — a structured value
// rather than a bare panic string so recover boundaries and pre-flight
// validation can both report it.
type ConfigError struct{ Reason string }

func (e *ConfigError) Error() string { return "gc: " + e.Reason }

// Validate checks cfg without building a heap; runner constructors call it
// so misconfiguration surfaces as an error instead of a panic.
func Validate(cfg Config) error {
	switch cfg.Kind {
	case RefCount:
	case Generational:
		if cfg.NurseryBytes == 0 {
			return &ConfigError{Reason: "generational heap needs a nursery size"}
		}
		if cfg.NurseryBytes < MinNursery {
			return &ConfigError{Reason: fmt.Sprintf(
				"nursery %d below minimum %d", cfg.NurseryBytes, MinNursery)}
		}
		if cfg.NurseryBytes > mem.HeapSpan/2 {
			return &ConfigError{Reason: fmt.Sprintf(
				"nursery %d exceeds half the heap span %d", cfg.NurseryBytes, mem.HeapSpan)}
		}
	default:
		return &ConfigError{Reason: fmt.Sprintf("unknown kind %d", cfg.Kind)}
	}
	return nil
}

// New builds a heap over the engine. Code addresses for the allocator
// routines are taken from cspace (interpreter text segment). Invalid
// configurations panic with a typed *ConfigError; call Validate first to
// get an error instead.
func New(cfg Config, eng *emit.Engine, cspace *emit.CodeSpace) *Heap {
	if cfg.MajorGrowthFactor == 0 {
		cfg.MajorGrowthFactor = 1.82
	}
	if err := Validate(cfg); err != nil {
		panic(err)
	}
	h := &Heap{
		cfg:       cfg,
		eng:       eng,
		pcAlloc:   cspace.Block(64),
		pcMinor:   cspace.Block(512),
		pcMajor:   cspace.Block(512),
		pcDealloc: cspace.Block(128),
		pcBarrier: cspace.Block(32),
	}
	switch cfg.Kind {
	case RefCount:
		h.rcArena = mem.NewRegion("rc-heap", mem.HeapBase, mem.HeapSpan)
		h.rcFree = mem.NewFreeList(h.rcArena)
	case Generational:
		h.nursery = mem.NewRegion("nursery", mem.HeapBase, cfg.NurseryBytes)
		oldBase := mem.HeapBase + ((cfg.NurseryBytes + 0xfff) &^ 0xfff) + 0x1000_0000
		h.old = mem.NewRegion("oldspace", oldBase, mem.HeapSpan-(oldBase-mem.HeapBase))
		h.oldFree = mem.NewFreeList(h.old)
	}
	return h
}

// retainObjs bounds the object lists Reset keeps for reuse: a list whose
// capacity grew past it is dropped instead, so a reused heap never keeps
// its largest job's memory.
const retainObjs = 4096

// Reset returns the heap to the state New left it in, keeping its
// configuration, code addresses, root provider and OOM and tick hooks:
// every arena rewinds to its base and its free lists empty, the object
// lists are emptied with their elements cleared (so the last job's
// objects can be collected), and the governor state (limit, grace,
// fault injector) and Stats are zeroed. A VM calls it to reuse its heap
// for the next job; simulated addresses then repeat exactly.
func (h *Heap) Reset() {
	switch h.cfg.Kind {
	case RefCount:
		h.rcFree.Reset()
	case Generational:
		h.nursery.Reset()
		h.oldFree.Reset()
	}
	h.young = rewound(h.young)
	h.oldObjs = rewound(h.oldObjs)
	h.remember = rewound(h.remember)
	h.liveAfter, h.oldAlloc = 0, 0
	h.limit, h.grace, h.faultInj, h.inEmergency = 0, 0, nil, false
	h.Stats = Stats{}
}

// rewound empties s for reuse, clearing its whole backing array; a
// slice that grew past retainObjs is dropped.
func rewound(s []pyobj.Object) []pyobj.Object {
	if cap(s) > retainObjs {
		return nil
	}
	clear(s[:cap(s)])
	return s[:0]
}

// ---- Resource governor ----

// SetLimit caps the heap's live footprint at bytes (0 = unlimited). When
// an allocation would exceed the cap, the heap attempts one emergency full
// collection (Generational mode) before declaring OOM.
func (h *Heap) SetLimit(bytes uint64) { h.limit = bytes }

// SetOOM installs the out-of-memory handler. The VM installs a function
// that raises the in-language MemoryError; the handler must not return
// normally if it wants to stop the allocation (it unwinds via panic).
func (h *Heap) SetOOM(fn func(need uint64)) { h.oomFn = fn }

// SetTick installs a callback polled at collection entry — the VM uses it
// to check the execution deadline during GC, which can dominate runtime on
// hostile allocation patterns.
func (h *Heap) SetTick(fn func()) { h.tick = fn }

// SetFaults installs a chaos-mode fault injector (nil disables).
func (h *Heap) SetFaults(in *faults.Injector) { h.faultInj = in }

// Faults returns the installed injector (nil when chaos mode is off).
func (h *Heap) Faults() *faults.Injector { return h.faultInj }

// BeginGrace suspends limit enforcement and fault injection; EndGrace
// restores them. Error-recovery paths (JIT deopt state reconstruction)
// run under grace so boxing the exit state can never re-fault.
func (h *Heap) BeginGrace() { h.grace++ }

// EndGrace ends a BeginGrace section.
func (h *Heap) EndGrace() { h.grace-- }

// UsedBytes returns the heap's live footprint: bytes handed out and not
// yet freed, at allocator granularity. Exact for both collectors (the
// free lists track returned bytes; the nursery is live up to its bump
// pointer until the next minor collection).
func (h *Heap) UsedBytes() uint64 {
	switch h.cfg.Kind {
	case RefCount:
		return h.rcFree.LiveBytes()
	case Generational:
		return h.nursery.Used() + h.oldFree.LiveBytes()
	}
	return 0
}

// reserve enforces the heap limit (and chaos alloc faults) for an n-byte
// allocation, attempting one emergency full collection before declaring
// OOM. The fast path is two nil/zero compares.
func (h *Heap) reserve(n uint64) {
	if h.grace > 0 {
		return
	}
	if h.faultInj.Should(faults.AllocFail) {
		h.oom(n)
		return
	}
	if h.limit == 0 || h.UsedBytes()+n <= h.limit {
		return
	}
	h.emergencyCollect()
	if h.UsedBytes()+n <= h.limit {
		return
	}
	h.oom(n)
}

// emergencyCollect runs one full collection ahead of declaring OOM
// (Generational only; reference counting frees eagerly, so there is
// nothing left to reclaim).
func (h *Heap) emergencyCollect() {
	if h.cfg.Kind != Generational || h.inEmergency {
		return
	}
	h.inEmergency = true
	h.CollectMinor()
	h.CollectMajor()
	h.inEmergency = false
}

// oom reports allocation failure through the installed handler (expected
// to raise MemoryError and unwind); without a handler it panics with a
// typed error a recover boundary can classify.
func (h *Heap) oom(n uint64) {
	if h.oomFn != nil {
		h.oomFn(n)
	}
	panic(&OutOfMemoryError{Need: n, Limit: h.limit, Used: h.UsedBytes()})
}

// SetRoots installs the root provider. It must be set before the first
// allocation in Generational mode.
func (h *Heap) SetRoots(r RootProvider) { h.root = r }

// Config returns the heap configuration.
func (h *Heap) Config() Config { return h.cfg }

// Kind returns the collector kind.
func (h *Heap) Kind() Kind { return h.cfg.Kind }

// NurseryBase returns the nursery region base (Generational only).
func (h *Heap) NurseryBase() uint64 { return h.nursery.Base() }

// bigThreshold returns the size above which allocations bypass the
// nursery.
func (h *Heap) bigThreshold() uint64 {
	if h.cfg.BigObjectBytes > 0 {
		return h.cfg.BigObjectBytes
	}
	return h.cfg.NurseryBytes / 4
}

// Allocate assigns a simulated address to o and emits the allocation
// events (charged to cat) including the header-initialization stores. In
// Generational mode it may trigger a minor (and transitively major)
// collection.
func (h *Heap) Allocate(o pyobj.Object, cat core.Category) {
	size := pyobj.FixedSize(o)
	h.reserve(size)
	hd := o.Hdr()
	hd.Size = uint32(size)
	h.Stats.Allocations++
	h.Stats.BytesAlloc += size

	switch h.cfg.Kind {
	case RefCount:
		addr, reused := h.rcAlloc(size)
		if reused {
			h.Stats.FreelistReuse++
		}
		hd.Addr = addr
		hd.RC = 1
		// Free-list pop / bump: pointer load, link update.
		h.eng.Load(cat, addr, false)
		h.eng.ALU(cat, true)
	case Generational:
		hd.Addr = h.genAlloc(size, cat)
		hd.Old = hd.Addr >= h.old.Base()
		if hd.Old {
			h.oldObjs = append(h.oldObjs, o)
			h.oldAlloc += size
		} else {
			h.young = append(h.young, o)
		}
	}
	// Header initialization: type pointer and refcount/GC word.
	h.eng.Store(cat, hd.Addr)
	h.eng.Store(cat, hd.Addr+8)
}

// AllocPayload allocates a variable-size payload block (list item arrays,
// dict tables, string data) and returns its address.
func (h *Heap) AllocPayload(n uint64, cat core.Category) uint64 {
	if n == 0 {
		return 0
	}
	h.reserve(n)
	h.Stats.PayloadAllocs++
	h.Stats.BytesAlloc += n
	switch h.cfg.Kind {
	case RefCount:
		addr, reused := h.rcAlloc(n)
		if reused {
			h.Stats.FreelistReuse++
		}
		h.eng.Load(cat, addr, false)
		h.eng.ALU(cat, true)
		return addr
	default:
		return h.genAlloc(n, cat)
	}
}

// rcAlloc allocates from the refcount arena, mapping region exhaustion to
// the OOM path instead of a panic.
func (h *Heap) rcAlloc(n uint64) (addr uint64, reused bool) {
	addr, reused, err := h.rcFree.AllocErr(n)
	if err != nil {
		h.oom(n)
	}
	return addr, reused
}

// oldAllocBlock allocates in the old space, mapping region exhaustion to
// the OOM path.
func (h *Heap) oldAllocBlock(n uint64) uint64 {
	addr, _, err := h.oldFree.AllocErr(n)
	if err != nil {
		h.oom(n)
	}
	return addr
}

// FreePayload returns a payload block to the allocator (RefCount mode; a
// no-op under generational collection).
func (h *Heap) FreePayload(addr, n uint64) {
	if h.cfg.Kind != RefCount || addr == 0 {
		return
	}
	h.Stats.Frees++
	h.rcFree.Free(addr, n)
	// Free-list push: link store.
	h.eng.Store(core.GarbageCollection, addr)
}

// genAlloc bump-allocates in the nursery, collecting when full; large
// blocks go straight to the old space.
func (h *Heap) genAlloc(n uint64, cat core.Category) uint64 {
	if n >= h.bigThreshold() {
		h.Stats.BigAllocs++
		addr := h.oldAllocBlock(n)
		h.oldAlloc += n
		h.eng.ALU(cat, false)
		h.maybeMajor()
		return addr
	}
	if h.grace == 0 && h.faultInj.Should(faults.NurseryExhaust) {
		// Chaos mode: pretend the nursery filled here, forcing a minor
		// collection at an arbitrary allocation point.
		h.CollectMinor()
	}
	// Bump: add + limit check.
	h.eng.ALU(cat, false)
	h.eng.Branch(cat, false)
	addr, ok := h.nursery.Alloc(n, 16)
	if !ok {
		h.CollectMinor()
		addr, ok = h.nursery.Alloc(n, 16)
		if !ok {
			// Object larger than the nursery: old space.
			addr = h.oldAllocBlock(n)
			h.oldAlloc += n
		}
	}
	return addr
}

// FreeObject explicitly releases an object whose lifetime the VM manages
// directly (frames). Under reference counting the block and payload return
// to the free lists with the corresponding free-list stores; under
// generational collection dead nursery objects are simply abandoned.
func (h *Heap) FreeObject(o pyobj.Object, cat core.Category) {
	if h.cfg.Kind != RefCount {
		return
	}
	hd := o.Hdr()
	if hd.Immortal {
		return
	}
	if p := pyobj.PayloadSize(o); p > 0 {
		if a := payloadAddr(o); a != 0 {
			h.rcFree.Free(a, p)
			h.eng.Store(cat, a)
		}
	}
	h.rcFree.Free(hd.Addr, uint64(hd.Size))
	h.eng.Store(cat, hd.Addr)
	h.Stats.Frees++
}
