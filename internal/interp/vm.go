// Package interp is the MiniPy virtual machine: a CPython-2.7-style
// stack-based bytecode interpreter instrumented at the operation level.
// Every action — dispatch, stack traffic, type checks, boxing, name
// resolution, C helper calls, refcounting — emits categorized micro-events
// through the emit.Engine, reproducing the paper's annotated-interpreter
// methodology.
package interp

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/emit"
	"repro/internal/gc"
	"repro/internal/mem"
	"repro/internal/pycode"
	"repro/internal/pyobj"
)

// smallIntMin/Max bound CPython's preallocated small-integer cache.
const (
	smallIntMin = -5
	smallIntMax = 256
)

// Tracer observes interpreter execution; the JIT installs one to record
// traces and to intercept hot loop back-edges.
type Tracer interface {
	// OnBackEdge is called when a backward JUMP_ABSOLUTE (a loop
	// iteration boundary) is about to execute in frame f toward target.
	// If it returns true, the tracer has advanced the frame itself
	// (executed compiled code); the interpreter re-reads f.PC.
	OnBackEdge(f *pyobj.Frame, target int) bool
	// RecordInstr is called before each bytecode executes while
	// recording is active.
	RecordInstr(f *pyobj.Frame, pc int, in pycode.Instr)
	// Recording reports whether a recording session is active.
	Recording() bool
}

// PyError is a Python-level error (TypeError, IndexError, ...). MiniPy has
// no try/except, so a raised error aborts execution and surfaces to the
// host as a Go error.
type PyError struct {
	Kind string
	Msg  string
}

func (e *PyError) Error() string { return e.Kind + ": " + e.Msg }

// Raise panics with a PyError; the VM recovers it at the Run boundary.
func Raise(kind, format string, args ...interface{}) {
	panic(&PyError{Kind: kind, Msg: fmt.Sprintf(format, args...)})
}

// VM is one MiniPy runtime instance.
type VM struct {
	Eng  *emit.Engine
	Heap *gc.Heap

	// Stdout receives program output.
	Stdout io.Writer

	// MaxBytecodes aborts execution with a RuntimeError after this many
	// bytecodes (0 = unlimited). A safety valve for runaway programs.
	MaxBytecodes uint64

	// ExtraRoots, when set, contributes additional GC roots (the JIT's
	// live trace registers during compiled-code execution).
	ExtraRoots func(visit func(pyobj.Object))

	// Singletons and caches (immortal, data segment).
	None      *pyobj.None
	True      *pyobj.Bool
	False     *pyobj.Bool
	smallInts [smallIntMax - smallIntMin + 1]*pyobj.Int
	interned  map[string]*pyobj.Str
	emptyStr  *pyobj.Str
	// internLog lists the strings interned since New, which Reset
	// removes from interned (their data-segment addresses are reissued).
	internLog []string

	// Namespaces.
	Builtins *pyobj.Dict
	Globals  *pyobj.Dict

	// Data segment for immortal objects.
	data *mem.Region

	// Code layout.
	interpSpace *emit.CodeSpace
	clibSpace   *emit.CodeSpace
	jitSpace    *emit.CodeSpace
	opPC        [pycode.NumOpcodes]uint64
	hp          helperPCs

	// Per-code materialized constants.
	constCache map[*pycode.Code]*codeData

	// Quickening + inline caches (quicken.go). quicken gates bytecode
	// rewriting at materialize time; icFlushEvery, when nonzero, flushes
	// every cache after that many fills (the difftest invalidation-churn
	// leg). icFills counts lifetime cache fills.
	quicken      bool
	icFlushEvery uint64
	icFills      uint64
	// Tier-2 quickening (quicken_poly.go / quicken_fuse.go). polyICs
	// gates promotion of missing monomorphic sites to polymorphic stubs;
	// fusion gates the superinstruction pass (always off under a tracer —
	// recorded traces must see one instruction per dispatch); intFast
	// gates the speculative unboxed-int rewrites. fuseFlushEvery, when
	// nonzero, de-fuses (odd trips) and re-fuses (even trips) every
	// fusable pair after that many tier-2 fast-path executions — the
	// difftest fusion-churn leg. intFastMaxAbs caps the operand magnitude
	// the int fast path accepts (difftest's forced-deopt leg sets it to
	// 1; 0 means no cap beyond real int64 overflow).
	polyICs        bool
	fusion         bool
	intFast        bool
	fuseFlushEvery uint64
	fuseTicks      uint64
	fuseFlushed    bool
	intFastMaxAbs  int64
	// Portable IC seed (icseed.go). icSeed is the armed warm-start hint
	// set; seedUnits is its per-run binding from code pointers to units,
	// built by bindSeed when RunCode starts.
	icSeed    *ICSeed
	seedUnits map[*pycode.Code]*SeedUnit

	// Builtin implementations indexed by BuiltinID.
	builtinImpls []builtinImpl

	// Execution state.
	frame      *pyobj.Frame
	depth      int
	maxDepth   int
	tracer     Tracer
	regexCache map[string]*rePattern
	rng        uint64 // deterministic PRNG state for the random module
	iterations uint64 // executed bytecodes (diagnostics)

	// Resource governor state (governor.go). nextCheck is the iteration
	// count at which dispatch enters the governor slow path — one compare
	// on the hot path covers every armed limit.
	limits         Limits
	nextCheck      uint64
	stepBase       uint64
	deadlineAt     time.Time
	recursionLimit int
	outBytes       uint64
	// Cooperative step-slicing (governor.go). When yieldFn is installed,
	// the governor slow path invokes it every sliceSteps bytecodes; the
	// hook may block (parking the VM's goroutine with the Python frame
	// stack intact) and returns the parked duration, which is credited
	// back to deadlineAt so scheduling delay never trips the wall-clock
	// budget. Independent of Limits: an unlimited job still yields.
	// urgent, when armed, is polled every preemptStride bytecodes and
	// calls the hook before the quantum is up.
	sliceSteps uint64
	sliceBase  uint64
	urgent     *atomic.Bool
	yieldFn    func() time.Duration
	// unwound captures the frame stack while a Go panic unwinds
	// (crash-isolation snapshot; see noteUnwind). unwoundTotal counts
	// every unwound frame, including those past the snapshot cap.
	unwound      []FrameInfo
	unwoundTotal int

	// Counters.
	Stats VMStats

	// Restore state (Reset): a copy of this struct as New left it, and
	// the region cursors at that point.
	pristine                                *VM
	dataMark, interpMark, clibMark, jitMark uint64
}

// VMStats counts interpreter activity.
type VMStats struct {
	Bytecodes  uint64
	Calls      uint64
	CCalls     uint64
	FrameAlloc uint64
	// IC counts inline-cache activity per site kind (quicken.go).
	IC ICStats
}

type codeData struct {
	consts     []pyobj.Object
	constsAddr uint64
	codeAddr   uint64
	namesAddr  uint64
	nameObjs   []*pyobj.Str
	// quick is this VM's quickened copy of Code.Code (nil when
	// quickening is off or the code object has no cache sites); caches
	// are the per-site inline-cache slots indexed by Code.SiteOf, and
	// icAddr is the simulated address of the slot array. Per-VM by
	// design: code objects are shared across concurrently executing
	// VMs, so neither the rewritten instructions nor the mutable cache
	// state may live on the code object.
	quick  []pycode.Instr
	caches []pyobj.ICache
	icAddr uint64
	// fused records the superinstruction rewrites applied to quick, for
	// mid-run de-fusion/re-fusion (quicken_fuse.go). Atomic pairs
	// (COMPARE_POP_JUMP, LOAD_FAST_LOAD_FAST) are rewritable at any
	// dispatch boundary; attr-call pairs are never de-fused (their two
	// halves bracket live stack state) and deoptimize per-execution
	// through the nil-marker path instead.
	fused []fusedSite
}

// helperPCs are the code blocks of the interpreter's C helper routines.
type helperPCs struct {
	dispatchLoop,
	dictGet, dictSet, binOpSlow, cmpSlow, getItem, setItem,
	getAttr, setAttr, iterNext, getIter, callPy, callC, allocObj,
	buildSeq, unpack, strOps, truthy, frameAlloc uint64
}

// New creates a VM over the engine with the given heap. The caller wires
// heap roots via vm (SetRoots is called here).
func New(eng *emit.Engine, heapCfg gc.Config, stdout io.Writer) *VM {
	interpRegion := mem.NewRegion("interp-code", mem.InterpCodeBase, mem.CLibCodeBase-mem.InterpCodeBase)
	clibRegion := mem.NewRegion("clib-code", mem.CLibCodeBase, mem.JITCodeBase-mem.CLibCodeBase)
	vm := &VM{
		Eng:         eng,
		Stdout:      stdout,
		interned:    make(map[string]*pyobj.Str),
		data:        mem.NewRegion("data", mem.DataBase, mem.HeapBase-mem.DataBase),
		interpSpace: emit.NewCodeSpace(interpRegion),
		clibSpace:   emit.NewCodeSpace(clibRegion),
		constCache:  make(map[*pycode.Code]*codeData),
		quicken:     true,
		polyICs:     true,
		fusion:      true,
		intFast:     true,
		rng:         0x9E3779B97F4A7C15,
	}
	vm.jitSpace = emit.NewCodeSpace(mem.NewRegion("jit-code", mem.JITCodeBase, mem.DataBase-mem.JITCodeBase))
	vm.Heap = gc.New(heapCfg, eng, vm.interpSpace)
	vm.Heap.SetRoots(gc.RootFunc(vm.roots))
	// Allocation failure of any kind surfaces as MemoryError, and GC entry
	// polls the execution deadline (no-ops until limits are armed).
	vm.Heap.SetOOM(vm.raiseMemoryError)
	vm.Heap.SetTick(vm.pollDeadline)
	vm.recursionLimit = maxRecursion
	vm.nextCheck = ^uint64(0)

	// Opcode handler code blocks (the big dispatch switch's arms).
	for op := 0; op < pycode.NumOpcodes; op++ {
		vm.opPC[op] = vm.interpSpace.Block(96)
	}
	vm.hp = helperPCs{
		dispatchLoop: vm.interpSpace.Block(48),
		dictGet:      vm.interpSpace.Block(64),
		dictSet:      vm.interpSpace.Block(96),
		binOpSlow:    vm.interpSpace.Block(160),
		cmpSlow:      vm.interpSpace.Block(128),
		getItem:      vm.interpSpace.Block(96),
		setItem:      vm.interpSpace.Block(96),
		getAttr:      vm.interpSpace.Block(128),
		setAttr:      vm.interpSpace.Block(96),
		iterNext:     vm.interpSpace.Block(64),
		getIter:      vm.interpSpace.Block(64),
		callPy:       vm.interpSpace.Block(192),
		callC:        vm.interpSpace.Block(96),
		allocObj:     vm.interpSpace.Block(48),
		buildSeq:     vm.interpSpace.Block(64),
		unpack:       vm.interpSpace.Block(64),
		strOps:       vm.interpSpace.Block(256),
		truthy:       vm.interpSpace.Block(48),
		frameAlloc:   vm.interpSpace.Block(64),
	}

	vm.initSingletons()
	vm.Builtins = vm.newImmortalDict()
	vm.registerBuiltins()
	vm.Globals = nil // created per module run
	vm.seal()
	return vm
}

// retainEntries bounds the per-job maps and logs Reset empties in place;
// one that grew past it is dropped instead, so a reused VM never keeps
// its largest job's memory.
const retainEntries = 1024

// seal records the state Reset restores: the region cursors and a copy
// of every field.
func (vm *VM) seal() {
	vm.dataMark = vm.data.Cur()
	vm.interpMark = vm.interpSpace.Region().Cur()
	vm.clibMark = vm.clibSpace.Region().Cur()
	vm.jitMark = vm.jitSpace.Region().Cur()
	p := new(VM)
	*p = *vm
	// Reset carries these two maps over itself, and may replace them:
	// the copy must not keep a dropped one alive.
	p.interned, p.constCache = nil, nil
	p.pristine = p
	vm.pristine = p
}

// Reset returns the VM to the exact state New left it in, without
// rebuilding it: the next run sees the same simulated addresses, the
// same counters and the same settings as a run on a fresh VM. Every
// field is restored from the copy New took (so each Set* knob returns
// to its default and the JIT tracer is detached); the data, code and
// JIT regions rewind to their post-New cursors; the heap and the
// engine's call stacks rewind; and the strings interned and the code
// objects materialized since New are forgotten.
//
// Builtins and the builtin module namespaces are kept as they are:
// programs cannot write to them (modules reject attribute stores, and
// no builtin exposes their dicts). Immortal objects' headers are kept as
// the last job left them: the collectors never set Old, Mark or
// Remembered on an immortal, and never read its RC.
func (vm *VM) Reset() {
	interned, log := vm.rewindInterned()
	constCache := vm.constCache
	if len(constCache) > retainEntries {
		constCache = make(map[*pycode.Code]*codeData)
	} else {
		clear(constCache)
	}
	*vm = *vm.pristine
	vm.interned, vm.internLog, vm.constCache = interned, log, constCache
	vm.data.SetCur(vm.dataMark)
	vm.interpSpace.Region().SetCur(vm.interpMark)
	vm.clibSpace.Region().SetCur(vm.clibMark)
	vm.jitSpace.Region().SetCur(vm.jitMark)
	vm.Eng.Reset()
	vm.Heap.Reset()
}

// rewindInterned removes the strings interned since New from the
// interned map and returns the map with the emptied log. After a job
// that interned more than retainEntries strings, it returns a new map
// of the base strings (those below the post-New data cursor) instead.
func (vm *VM) rewindInterned() (map[string]*pyobj.Str, []string) {
	m, log := vm.interned, vm.internLog
	if len(log) > retainEntries {
		base := make(map[string]*pyobj.Str, len(m)-len(log))
		for k, s := range m {
			if s.H.Addr < vm.dataMark {
				base[k] = s
			}
		}
		return base, nil
	}
	for _, k := range log {
		delete(m, k)
	}
	clear(log)
	return m, log[:0]
}

// SetTracer installs the JIT tracer. Superinstruction fusion is
// incompatible with trace recording (a fused dispatch retires two
// logical bytecodes, but RecordInstr must see exactly one generic op per
// dispatch), so installing a tracer de-fuses every existing quickened
// stream and disables the fusion pass for future materializations.
func (vm *VM) SetTracer(t Tracer) {
	vm.tracer = t
	if t != nil {
		for _, cd := range vm.constCache {
			vm.defuseAll(cd)
		}
	}
}

// SetStdout redirects program output to w (the differential oracle's
// output-capture hook). Passing nil discards output.
func (vm *VM) SetStdout(w io.Writer) {
	if w == nil {
		w = io.Discard
	}
	vm.Stdout = w
}

// Snapshot is a point-in-time copy of the VM's activity counters together
// with the heap's, for cross-mode invariant checking.
type Snapshot struct {
	VM       VMStats
	Heap     gc.Stats
	MaxDepth int
	// Bytecodes mirrors VM.Bytecodes for convenience.
	Bytecodes uint64
}

// StatsSnapshot returns the current VM + heap counters.
func (vm *VM) StatsSnapshot() Snapshot {
	return Snapshot{
		VM:        vm.Stats,
		Heap:      vm.Heap.Stats,
		MaxDepth:  vm.maxDepth,
		Bytecodes: vm.Stats.Bytecodes,
	}
}

// roots enumerates GC roots: the live frame chain (locals and evaluation
// stacks), module globals, and builtins.
func (vm *VM) roots(visit func(pyobj.Object)) {
	if vm.ExtraRoots != nil {
		vm.ExtraRoots(visit)
	}
	for f := vm.frame; f != nil; f = f.Back {
		visit(f)
	}
	if vm.Globals != nil {
		visit(vm.Globals)
	}
	visit(vm.Builtins)
}

// ---- Immortal object construction (data segment, no heap traffic) ----

func (vm *VM) dataAlloc(size uint64) uint64 { return vm.data.MustAlloc(size, 16) }

// typeAddrsOnce guards the one-time assignment of the shared
// pyobj.Types addresses: every VM's data segment starts at the same
// fixed base, so all VMs compute identical addresses, and concurrent VM
// construction (worker pools) must not race on the write.
var typeAddrsOnce sync.Once

func (vm *VM) initSingletons() {
	// Type objects live at the start of the data segment so slot
	// addresses are valid. Every VM reserves the space; the first
	// publishes the (identical) addresses into the shared type objects.
	assigned := false
	typeAddrsOnce.Do(func() {
		assigned = true
		for _, t := range pyobj.Types {
			t.Addr = vm.dataAlloc(256)
		}
	})
	if !assigned {
		for range pyobj.Types {
			vm.dataAlloc(256)
		}
	}
	vm.None = &pyobj.None{H: pyobj.Header{Addr: vm.dataAlloc(16), Size: 16, Immortal: true}}
	vm.True = &pyobj.Bool{H: pyobj.Header{Addr: vm.dataAlloc(24), Size: 24, Immortal: true}, V: true}
	vm.False = &pyobj.Bool{H: pyobj.Header{Addr: vm.dataAlloc(24), Size: 24, Immortal: true}, V: false}
	for i := range vm.smallInts {
		vm.smallInts[i] = &pyobj.Int{
			H: pyobj.Header{Addr: vm.dataAlloc(24), Size: 24, Immortal: true},
			V: int64(i + smallIntMin),
		}
	}
	vm.emptyStr = vm.Intern("")
}

// Intern returns the canonical immortal Str for s, creating it on first
// use (names, constants, and common runtime strings are interned, as in
// CPython).
func (vm *VM) Intern(s string) *pyobj.Str {
	if o, ok := vm.interned[s]; ok {
		return o
	}
	size := uint64(40 + len(s))
	o := &pyobj.Str{H: pyobj.Header{Addr: vm.dataAlloc(size), Size: uint32(size), Immortal: true}, V: s}
	o.DataAddr = o.H.Addr + 40
	vm.interned[s] = o
	if vm.pristine != nil {
		vm.internLog = append(vm.internLog, s)
	}
	return o
}

// newImmortalDict builds a dict in the data segment (builtins, module
// namespaces of builtin modules).
func (vm *VM) newImmortalDict() *pyobj.Dict {
	d := pyobj.NewDictData()
	d.H = pyobj.Header{Addr: vm.dataAlloc(48), Size: 48, Immortal: true}
	d.TableAddr = vm.dataAlloc(uint64(d.TableCap) * 24)
	return d
}

// growImmortalDict re-places an immortal dict's table after growth.
func (vm *VM) placeDictTable(d *pyobj.Dict, cat core.Category) {
	if d.Hdr().Immortal {
		d.TableAddr = vm.dataAlloc(uint64(d.TableCap) * 24)
		return
	}
	d.TableAddr = vm.Heap.AllocPayload(uint64(d.TableCap)*24, cat)
}

// ---- Heap object constructors (emit allocation + init events) ----

// NewInt boxes v. Small ints come from the immortal cache — CPython's
// fast path: range check + table load instead of an allocation.
func (vm *VM) NewInt(v int64) *pyobj.Int {
	vm.Eng.ALU(core.Boxing, false) // range check lo
	vm.Eng.Branch(core.Boxing, v >= smallIntMin && v <= smallIntMax)
	if v >= smallIntMin && v <= smallIntMax {
		o := vm.smallInts[v-smallIntMin]
		vm.Eng.Load(core.Boxing, o.H.Addr, false)
		vm.Heap.Incref(o)
		return o
	}
	o := &pyobj.Int{V: v}
	vm.Heap.Allocate(o, core.Boxing)
	vm.Eng.Store(core.Boxing, o.H.Addr+16)
	return o
}

// NewFloat boxes v.
func (vm *VM) NewFloat(v float64) *pyobj.Float {
	o := &pyobj.Float{V: v}
	vm.Heap.Allocate(o, core.Boxing)
	vm.Eng.Store(core.Boxing, o.H.Addr+16)
	return o
}

// NewBool returns the True/False singleton.
func (vm *VM) NewBool(v bool) *pyobj.Bool {
	if v {
		vm.Heap.Incref(vm.True)
		return vm.True
	}
	vm.Heap.Incref(vm.False)
	return vm.False
}

// NewStr allocates a heap string, emitting stores for the character data.
func (vm *VM) NewStr(s string) *pyobj.Str {
	o := &pyobj.Str{V: s}
	vm.Heap.Allocate(o, core.Execute)
	if len(s) > 24 {
		o.DataAddr = vm.Heap.AllocPayload(uint64(len(s)), core.Execute)
	} else {
		o.DataAddr = o.H.Addr + 40
	}
	// Length store plus data stores, word granularity (capped).
	vm.Eng.Store(core.Execute, o.H.Addr+16)
	words := vm.events((len(s)+7)/8, 64)
	for i := 0; i < words; i++ {
		vm.Eng.Store(core.Execute, o.DataAddr+uint64(i*8))
	}
	return o
}

// NewList allocates a list with the given elements (takes ownership of the
// references).
func (vm *VM) NewList(items []pyobj.Object) *pyobj.List {
	o := &pyobj.List{Items: items}
	capacity := len(items)
	if capacity < 4 {
		capacity = 4
	}
	o.ItemsCap = capacity
	vm.Heap.Allocate(o, core.Execute)
	o.ItemsAddr = vm.Heap.AllocPayload(uint64(capacity)*8, core.Execute)
	vm.Eng.Store(core.Execute, o.H.Addr+16) // ob_size
	for i := range items {
		vm.Eng.Store(core.Execute, o.ItemAddr(i))
		vm.barrier(o, items[i])
	}
	return o
}

// NewTuple allocates a tuple (elements stored inline).
func (vm *VM) NewTuple(items []pyobj.Object) *pyobj.Tuple {
	o := &pyobj.Tuple{Items: items}
	vm.Heap.Allocate(o, core.Execute)
	for i := range items {
		vm.Eng.Store(core.Execute, o.ItemAddr(i))
		vm.barrier(o, items[i])
	}
	return o
}

// NewDict allocates an empty dict.
func (vm *VM) NewDict() *pyobj.Dict {
	d := pyobj.NewDictData()
	vm.Heap.Allocate(d, core.Execute)
	d.TableAddr = vm.Heap.AllocPayload(uint64(d.TableCap)*24, core.Execute)
	return d
}

// NewRange allocates an xrange object.
func (vm *VM) NewRange(start, stop, step int64) *pyobj.Range {
	o := &pyobj.Range{Start: start, Stop: stop, Step: step}
	vm.Heap.Allocate(o, core.Execute)
	vm.Eng.Store(core.Execute, o.H.Addr+16)
	vm.Eng.Store(core.Execute, o.H.Addr+24)
	return o
}

// barrier applies the generational write barrier for a reference store.
func (vm *VM) barrier(owner, target pyobj.Object) {
	vm.Heap.WriteBarrier(owner, target)
}

// ---- Reference-count helpers ----

// Incref/Decref forward to the heap (no-ops under generational GC).
func (vm *VM) Incref(o pyobj.Object) { vm.Heap.Incref(o) }
func (vm *VM) Decref(o pyobj.Object) { vm.Heap.Decref(o) }

// ---- Value stack (emits reg-transfer address math + stack traffic) ----

func (vm *VM) push(f *pyobj.Frame, v pyobj.Object) {
	vm.Eng.ALU(core.RegTransfer, false) // compute stack slot address
	vm.Eng.Store(core.Stack, f.StackAddr(f.Sp))
	f.Stack[f.Sp] = v
	f.Sp++
}

func (vm *VM) pop(f *pyobj.Frame) pyobj.Object {
	f.Sp--
	vm.Eng.ALU(core.RegTransfer, false)
	vm.Eng.Load(core.Stack, f.StackAddr(f.Sp), false)
	v := f.Stack[f.Sp]
	f.Stack[f.Sp] = nil
	return v
}

func (vm *VM) top(f *pyobj.Frame) pyobj.Object {
	vm.Eng.ALU(core.RegTransfer, false)
	vm.Eng.Load(core.Stack, f.StackAddr(f.Sp-1), false)
	return f.Stack[f.Sp-1]
}

func (vm *VM) peek(f *pyobj.Frame, depth int) pyobj.Object {
	vm.Eng.ALU(core.RegTransfer, false)
	vm.Eng.Load(core.Stack, f.StackAddr(f.Sp-depth), false)
	return f.Stack[f.Sp-depth]
}

func (vm *VM) set(f *pyobj.Frame, depth int, v pyobj.Object) {
	vm.Eng.ALU(core.RegTransfer, false)
	vm.Eng.Store(core.Stack, f.StackAddr(f.Sp-depth))
	f.Stack[f.Sp-depth] = v
}

// ---- Dict operations with event emission ----

// dictProbeEvents emits the hash + probe traffic of a dict operation,
// charged to cat (NameResolution for namespace lookups, Execute for
// program dicts — the paper's origin-PC distinction).
func (vm *VM) dictProbeEvents(d *pyobj.Dict, res pyobj.LookupResult, hashAddr uint64, cat core.Category) {
	if !vm.Eng.Armed() {
		return
	}
	if hashAddr != 0 {
		// Interned keys carry a cached hash: single load.
		vm.Eng.Load(cat, hashAddr, false)
	} else {
		vm.Eng.ALUn(cat, 2) // hash computation
	}
	probes := res.Probes
	if probes < 1 {
		probes = 1
	}
	for p := 0; p < probes; p++ {
		vm.Eng.ALU(cat, true)                           // slot index
		vm.Eng.Load(cat, d.SlotAddr(res.Hash, p), true) // key pointer
		vm.Eng.ALU(cat, true)                           // compare
		vm.Eng.Branch(cat, p == probes-1)
	}
}

// DictGetStr looks up an interned name in a namespace dict, emitting a C
// call to the lookup helper plus probe traffic.
func (vm *VM) DictGetStr(d *pyobj.Dict, name string, cat core.Category) (pyobj.Object, bool) {
	vm.Eng.CCall(core.CFunctionCall, vm.hp.dictGet, emit.DefaultCCall)
	ko := vm.Intern(name)
	v, res, ok := d.GetStr(name)
	vm.dictProbeEvents(d, res, ko.H.Addr+24, cat)
	if ok {
		vm.Eng.Load(cat, d.SlotAddr(res.Hash, res.Probes-1)+8, true) // value pointer
	}
	vm.Eng.CReturn(core.CFunctionCall, emit.DefaultCCall)
	return v, ok
}

// DictGet looks up an arbitrary key (program dict access).
func (vm *VM) DictGet(d *pyobj.Dict, key pyobj.Object, cat core.Category) (pyobj.Object, bool) {
	vm.Eng.CCall(core.CFunctionCall, vm.hp.dictGet, emit.DefaultCCall)
	v, res, ok := d.Get(key)
	if !ok && res.Probes == 0 {
		vm.Eng.CReturn(core.CFunctionCall, emit.DefaultCCall)
		Raise("TypeError", "unhashable type: '%s'", pyobj.TypeName(key))
	}
	hashAddr := uint64(0)
	if _, isStr := key.(*pyobj.Str); isStr && key.Hdr().Immortal {
		hashAddr = key.Hdr().Addr + 24
	}
	vm.dictProbeEvents(d, res, hashAddr, cat)
	if ok {
		vm.Eng.Load(cat, d.SlotAddr(res.Hash, res.Probes-1)+8, true)
	}
	vm.Eng.CReturn(core.CFunctionCall, emit.DefaultCCall)
	return v, ok
}

// DictSet stores key -> value in d (program or namespace store), handling
// table growth, refcounts, and the write barrier.
func (vm *VM) DictSet(d *pyobj.Dict, key, value pyobj.Object, cat core.Category) {
	vm.Eng.CCall(core.CFunctionCall, vm.hp.dictSet, emit.DefaultCCall)
	res, ok := d.Set(key, value)
	if !ok {
		vm.Eng.CReturn(core.CFunctionCall, emit.DefaultCCall)
		Raise("TypeError", "unhashable type: '%s'", pyobj.TypeName(key))
	}
	hashAddr := uint64(0)
	if _, isStr := key.(*pyobj.Str); isStr && key.Hdr().Immortal {
		hashAddr = key.Hdr().Addr + 24
	}
	vm.dictProbeEvents(d, res, hashAddr, cat)
	if res.Found {
		// Overwrite: decref the old value.
		vm.Eng.Load(cat, d.SlotAddr(res.Hash, res.Probes-1)+8, true)
	} else {
		vm.Incref(key)
	}
	vm.Incref(value)
	vm.Eng.Store(cat, d.SlotAddr(res.Hash, res.Probes-1)+8)
	vm.barrier(d, key)
	vm.barrier(d, value)
	if res.Grew {
		vm.placeDictTable(d, cat)
		// Rehash traffic: one load+store per live entry (capped).
		n := vm.events(d.Len(), 256)
		for i := 0; i < n; i++ {
			vm.Eng.Load(cat, d.TableAddr+uint64(i)*24, false)
			vm.Eng.Store(cat, d.TableAddr+uint64(i)*24)
		}
	}
	vm.Eng.CReturn(core.CFunctionCall, emit.DefaultCCall)
}

// DictSetStr stores an interned-name binding (namespace stores, class
// namespaces, instance attributes).
func (vm *VM) DictSetStr(d *pyobj.Dict, name string, value pyobj.Object, cat core.Category) {
	vm.DictSet(d, vm.Intern(name), value, cat)
}

// ---- Error-check helper ----

// errCheck emits an error-check compare+branch; failed carries whether the
// error path is taken (which raises).
func (vm *VM) errCheck(failed bool) {
	vm.Eng.ALU(core.ErrorCheck, false)
	vm.Eng.Branch(core.ErrorCheck, failed)
}

// Truthy evaluates Python truth with events (bool fast path; richer types
// via the rich-control-flow category, as the paper's condition-evaluation
// overhead).
func (vm *VM) Truthy(o pyobj.Object) bool {
	vm.Eng.Load(core.TypeCheck, o.Hdr().Addr, false)
	switch v := o.(type) {
	case *pyobj.Bool:
		vm.Eng.Branch(core.TypeCheck, true)
		vm.Eng.Load(core.Boxing, v.H.Addr+16, true)
		return v.V
	case *pyobj.Int:
		vm.Eng.Branch(core.TypeCheck, true)
		vm.Eng.Load(core.Boxing, v.H.Addr+16, true)
		vm.Eng.ALU(core.Execute, true)
		return v.V != 0
	default:
		vm.Eng.Branch(core.TypeCheck, false)
		// Slow path: PyObject_IsTrue through tp_len/tp_nonzero.
		vm.Eng.Load(core.FunctionResolution, o.PyType().SlotAddr(pyobj.SlotLen), true)
		vm.Eng.CCall(core.CFunctionCall, vm.hp.truthy, indirectCCall)
		vm.Eng.ALUn(core.RichControlFlow, 2)
		t := pyobj.Truthy(o)
		vm.Eng.Branch(core.RichControlFlow, t)
		vm.Eng.CReturn(core.CFunctionCall, indirectCCall)
		return t
	}
}

var indirectCCall = emit.CCallCost{SavedRegs: 3, FrameBytes: 48, Indirect: true}

// Iterations returns the number of bytecodes executed.
func (vm *VM) Iterations() uint64 { return vm.iterations }

// FrameDepth returns the current Python call depth.
func (vm *VM) FrameDepth() int { return vm.depth }

// CurrentFrame returns the executing frame (JIT support).
func (vm *VM) CurrentFrame() *pyobj.Frame { return vm.frame }

// nextRand steps the deterministic xorshift PRNG backing the random
// module.
func (vm *VM) nextRand() uint64 {
	x := vm.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	vm.rng = x
	return x
}

// ResetRand reseeds the PRNG (between measurement runs for determinism).
func (vm *VM) ResetRand() { vm.rng = 0x9E3779B97F4A7C15 }

// formatForPrint renders an object as the print builtin does.
func formatForPrint(o pyobj.Object) string {
	return pyobj.StrOf(o)
}

// joinReprs is shared by error messages.
func joinReprs(items []pyobj.Object) string {
	parts := make([]string, len(items))
	for i, it := range items {
		parts[i] = pyobj.Repr(it)
	}
	return strings.Join(parts, ", ")
}
