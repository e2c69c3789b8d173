// Package emit is the instrumentation engine shared by the interpreter,
// the garbage collectors, the JIT, and the modeled C libraries. It turns
// high-level VM actions ("load this stack slot", "call this helper
// following the C calling convention") into the categorized isa.Event
// micro-instruction stream consumed by the microarchitecture simulator.
//
// The engine tracks a simulated program counter: every routine (opcode
// handler, interpreter helper, C library function, compiled trace) owns a
// block of simulated code addresses, and events emitted while the routine
// runs receive consecutive PCs inside the block. Calls and returns move
// between blocks, so the instruction cache and branch-target buffer see a
// realistic footprint.
//
// All of that is paid only while somebody is looking. An engine is armed
// when its sink observes events (anything but nil or isa.NullSink); an
// unarmed engine builds no event, makes no sink call and keeps no call
// stack, so a purely functional run pays one predictable branch per emit
// site. Callers whose only work is to compute simulated addresses for a
// burst of events test Armed once and skip the burst.
package emit

import (
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
)

// instrBytes is the average simulated instruction size.
const instrBytes = 4

// Engine emits micro-events. It is not safe for concurrent use; each
// simulated machine owns one engine.
type Engine struct {
	sink  isa.Sink
	armed bool // sink observes events; a function of the sink alone
	phase core.Phase
	clib  bool

	base uint64 // current routine's code block base
	off  uint64 // next instruction offset within the block

	frames []frame // simulated call stack of (base, off)
	cstack *mem.CStack

	ev isa.Event // scratch event, reused across emissions
}

type frame struct {
	base, off uint64
	clib      bool
}

// NewEngine returns an engine feeding sink, with the C stack starting at
// mem.CStackTop. A nil sink or isa.NullSink leaves the engine unarmed.
func NewEngine(sink isa.Sink) *Engine {
	e := &Engine{
		cstack: mem.NewCStack(mem.CStackTop),
		frames: make([]frame, 0, 64),
	}
	e.SetSink(sink)
	return e
}

// Reset returns the engine to the state NewEngine left it in, keeping
// its sink: phase, C-library flag and program counter cleared, the
// simulated call stack and the C stack empty. A run that aborted
// mid-call leaves frames behind; a reused VM calls this before its next
// run so the stream restarts where a fresh engine's would.
func (e *Engine) Reset() {
	e.phase, e.clib, e.base, e.off = 0, false, 0, 0
	if cap(e.frames) > 64 {
		e.frames = make([]frame, 0, 64)
	}
	e.frames = e.frames[:0]
	e.cstack.Reset()
}

// SetSink redirects the event stream and re-derives Armed from the new
// sink. Swap sinks only between top-level runs, where the simulated call
// stack is empty: an unarmed engine does not track calls, so arming one
// mid-call would return into frames it never saw pushed.
func (e *Engine) SetSink(sink isa.Sink) {
	_, null := sink.(isa.NullSink)
	e.sink = sink
	e.armed = sink != nil && !null
}

// Armed reports whether events reach an observing sink.
func (e *Engine) Armed() bool { return e.armed }

// Sink returns the current sink.
func (e *Engine) Sink() isa.Sink { return e.sink }

// SetPhase sets the execution phase stamped on subsequent events and
// returns the previous phase.
func (e *Engine) SetPhase(p core.Phase) core.Phase {
	old := e.phase
	e.phase = p
	return old
}

// Phase returns the current phase.
func (e *Engine) Phase() core.Phase { return e.phase }

// SetCLib sets the C-library flag stamped on subsequent events and returns
// the previous value.
func (e *Engine) SetCLib(v bool) bool {
	old := e.clib
	e.clib = v
	return old
}

// At positions the engine at the start of the routine whose code block
// begins at base. Opcode handlers call it on entry; the dispatch loop's
// indirect jump lands here.
func (e *Engine) At(base uint64) {
	e.base = base
	e.off = 0
}

// PC returns the next event's simulated program counter.
func (e *Engine) PC() uint64 { return e.base + e.off*instrBytes }

// CStack exposes the simulated C stack.
func (e *Engine) CStack() *mem.CStack { return e.cstack }

// Depth returns the simulated call depth.
func (e *Engine) Depth() int { return len(e.frames) }

// send is the one gate every event passes: small enough to inline into
// the typed emitters below, so an unarmed emit site is a load and a
// branch.
func (e *Engine) send(kind isa.Kind, cat core.Category, addr, target uint64, size uint8, taken, dep bool) {
	if e.armed {
		e.exec(kind, cat, addr, target, size, taken, dep)
	}
}

func (e *Engine) exec(kind isa.Kind, cat core.Category, addr, target uint64, size uint8, taken, dep bool) {
	e.ev = isa.Event{
		PC:      e.base + e.off*instrBytes,
		Addr:    addr,
		Target:  target,
		Size:    size,
		Kind:    kind,
		Cat:     cat,
		Phase:   e.phase,
		Taken:   taken,
		DepPrev: dep,
		CLib:    e.clib,
	}
	e.off++
	e.sink.Exec(&e.ev)
}

// Load emits an 8-byte load from addr.
func (e *Engine) Load(cat core.Category, addr uint64, dep bool) {
	e.send(isa.Load, cat, addr, 0, 8, false, dep)
}

// LoadN emits a load of size bytes from addr.
func (e *Engine) LoadN(cat core.Category, addr uint64, size uint8, dep bool) {
	e.send(isa.Load, cat, addr, 0, size, false, dep)
}

// Store emits an 8-byte store to addr.
func (e *Engine) Store(cat core.Category, addr uint64) {
	e.send(isa.Store, cat, addr, 0, 8, false, false)
}

// StoreN emits a store of size bytes to addr.
func (e *Engine) StoreN(cat core.Category, addr uint64, size uint8) {
	e.send(isa.Store, cat, addr, 0, size, false, false)
}

// ALU emits one integer ALU operation.
func (e *Engine) ALU(cat core.Category, dep bool) {
	e.send(isa.ALU, cat, 0, 0, 0, false, dep)
}

// ALUn emits n chained ALU operations (each depending on the previous).
func (e *Engine) ALUn(cat core.Category, n int) {
	if !e.armed {
		return
	}
	for i := 0; i < n; i++ {
		e.send(isa.ALU, cat, 0, 0, 0, false, true)
	}
}

// Mul, Div, FPU, FDiv emit arithmetic of the respective latency class.
func (e *Engine) Mul(cat core.Category, dep bool)  { e.send(isa.Mul, cat, 0, 0, 0, false, dep) }
func (e *Engine) Div(cat core.Category, dep bool)  { e.send(isa.Div, cat, 0, 0, 0, false, dep) }
func (e *Engine) FPU(cat core.Category, dep bool)  { e.send(isa.FPU, cat, 0, 0, 0, false, dep) }
func (e *Engine) FDiv(cat core.Category, dep bool) { e.send(isa.FDiv, cat, 0, 0, 0, false, dep) }

// Branch emits a conditional branch with the given outcome, dependent on
// the previous event (compare feeding the branch).
func (e *Engine) Branch(cat core.Category, taken bool) {
	if e.armed {
		e.exec(isa.CondBranch, cat, 0, e.base+e.off*instrBytes+64, 0, taken, true)
	}
}

// Jump emits an unconditional direct jump within the current routine.
func (e *Engine) Jump(cat core.Category) {
	e.send(isa.Jump, cat, 0, e.base, 0, false, false)
}

// IndJump emits an indirect jump to target and repositions the engine at
// target (the interpreter's decode switch).
func (e *Engine) IndJump(cat core.Category, target uint64) {
	if !e.armed {
		return
	}
	e.send(isa.IndJump, cat, 0, target, 0, false, true)
	e.At(target)
}

// Call emits a direct call to the routine at target: the return address is
// pushed on the simulated C stack and the engine moves to target. Matched
// by Ret.
func (e *Engine) Call(cat core.Category, target uint64) {
	if !e.armed {
		return
	}
	sp := e.cstack.Push(8)
	e.send(isa.Call, cat, sp, target, 8, false, false)
	e.frames = append(e.frames, frame{e.base, e.off, e.clib})
	e.At(target)
}

// IndCall emits an indirect call through a function pointer (the pointer
// load is the caller's responsibility, typically via function-resolution
// events). Matched by Ret.
func (e *Engine) IndCall(cat core.Category, target uint64) {
	if !e.armed {
		return
	}
	sp := e.cstack.Push(8)
	e.send(isa.IndCall, cat, sp, target, 8, false, true)
	e.frames = append(e.frames, frame{e.base, e.off, e.clib})
	e.At(target)
}

// Ret emits a return to the calling routine.
func (e *Engine) Ret(cat core.Category) {
	if !e.armed {
		return
	}
	sp := e.cstack.SP()
	e.cstack.Pop(8)
	n := len(e.frames) - 1
	if n < 0 {
		// Returning from the outermost routine: emit and stay.
		e.send(isa.Ret, cat, sp, 0, 8, false, false)
		return
	}
	f := e.frames[n]
	e.frames = e.frames[:n]
	e.send(isa.Ret, cat, sp, f.base+f.off*instrBytes, 8, false, false)
	e.base, e.off, e.clib = f.base, f.off, f.clib
}

// ---- C calling convention (the paper's headline overhead) ----

// CCallCost describes a modeled C function's calling-convention weight.
type CCallCost struct {
	// SavedRegs is the number of callee-saved registers pushed and
	// popped.
	SavedRegs int
	// FrameBytes is the local stack frame size.
	FrameBytes int
	// Indirect marks calls through a function pointer.
	Indirect bool
}

// DefaultCCall is the typical interpreter-helper calling cost.
var DefaultCCall = CCallCost{SavedRegs: 3, FrameBytes: 48}

// CCall emits a full C-call prologue: argument setup, the call itself,
// frame establishment, and register saves — all charged to cat
// (typically core.CFunctionCall). The engine moves to the callee's code
// block at target. Matched by CReturn with the same cost.
func (e *Engine) CCall(cat core.Category, target uint64, cost CCallCost) {
	if !e.armed {
		return
	}
	// Argument marshaling into registers.
	e.ALU(cat, false)
	if cost.Indirect {
		e.IndCall(cat, target)
	} else {
		e.Call(cat, target)
	}
	// Prologue inside callee: push rbp; mov rbp,rsp; sub rsp,frame.
	sp := e.cstack.Push(uint64(cost.FrameBytes))
	e.send(isa.Store, cat, sp+uint64(cost.FrameBytes)-8, 0, 8, false, false)
	e.ALU(cat, false)
	e.ALU(cat, true)
	for i := 0; i < cost.SavedRegs; i++ {
		e.send(isa.Store, cat, sp+uint64(i*8), 0, 8, false, false)
	}
}

// CReturn emits the matching C-call epilogue: register restores, frame
// teardown, and the return.
func (e *Engine) CReturn(cat core.Category, cost CCallCost) {
	if !e.armed {
		return
	}
	sp := e.cstack.SP()
	for i := 0; i < cost.SavedRegs; i++ {
		e.send(isa.Load, cat, sp+uint64(i*8), 0, 8, false, false)
	}
	// leave: mov rsp,rbp; pop rbp.
	e.ALU(cat, false)
	e.send(isa.Load, cat, sp+uint64(cost.FrameBytes)-8, 0, 8, false, true)
	e.cstack.Pop(uint64(cost.FrameBytes))
	e.Ret(cat)
}

// CodeSpace hands out code blocks from a region.
type CodeSpace struct {
	region *mem.Region
}

// NewCodeSpace wraps region as a code allocator.
func NewCodeSpace(region *mem.Region) *CodeSpace {
	return &CodeSpace{region: region}
}

// Block allocates a code block for a routine with the given number of
// static instructions.
func (cs *CodeSpace) Block(instrs int) uint64 {
	return cs.region.MustAlloc(uint64(instrs)*instrBytes, 64)
}

// Region returns the backing region.
func (cs *CodeSpace) Region() *mem.Region { return cs.region }
