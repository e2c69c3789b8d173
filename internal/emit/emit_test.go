package emit

import (
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
)

// recordSink keeps all events for inspection.
type recordSink struct{ evs []isa.Event }

func (r *recordSink) Exec(ev *isa.Event) { r.evs = append(r.evs, *ev) }

func TestPCProgression(t *testing.T) {
	var s recordSink
	e := NewEngine(&s)
	e.At(0x1000)
	e.ALU(core.Execute, false)
	e.ALU(core.Execute, false)
	e.Load(core.Stack, 0x9000, true)
	if s.evs[0].PC != 0x1000 || s.evs[1].PC != 0x1004 || s.evs[2].PC != 0x1008 {
		t.Errorf("PCs: %#x %#x %#x", s.evs[0].PC, s.evs[1].PC, s.evs[2].PC)
	}
	if !s.evs[2].DepPrev || s.evs[2].Addr != 0x9000 {
		t.Error("load event fields wrong")
	}
}

func TestCallReturnRestoresPC(t *testing.T) {
	var s recordSink
	e := NewEngine(&s)
	e.At(0x1000)
	e.ALU(core.Execute, false)
	e.Call(core.CFunctionCall, 0x2000)
	e.ALU(core.Execute, false) // executes at 0x2000
	e.Ret(core.CFunctionCall)
	e.ALU(core.Execute, false) // resumes after the call site
	if s.evs[2].PC != 0x2000 {
		t.Errorf("callee PC %#x", s.evs[2].PC)
	}
	last := s.evs[len(s.evs)-1].PC
	if last <= 0x1004 || last >= 0x2000 {
		t.Errorf("post-return PC %#x not in caller", last)
	}
	if e.Depth() != 0 {
		t.Errorf("unbalanced call depth %d", e.Depth())
	}
}

func TestCCallBalancesStack(t *testing.T) {
	var s recordSink
	e := NewEngine(&s)
	e.At(0x1000)
	sp0 := e.CStack().SP()
	cost := CCallCost{SavedRegs: 3, FrameBytes: 48}
	e.CCall(core.CFunctionCall, 0x3000, cost)
	if e.CStack().SP() >= sp0 {
		t.Error("ccall did not grow the stack")
	}
	e.CReturn(core.CFunctionCall, cost)
	if e.CStack().SP() != sp0 {
		t.Errorf("ccall/creturn unbalanced: %#x vs %#x", e.CStack().SP(), sp0)
	}
	// Prologue/epilogue must include the saved-register traffic.
	stores, loads := 0, 0
	for _, ev := range s.evs {
		switch ev.Kind {
		case isa.Store:
			stores++
		case isa.Load:
			loads++
		}
	}
	if stores < cost.SavedRegs+1 || loads < cost.SavedRegs+1 {
		t.Errorf("calling convention traffic missing: %d stores %d loads", stores, loads)
	}
}

func TestPhaseAndCLibStamps(t *testing.T) {
	var s recordSink
	e := NewEngine(&s)
	e.SetPhase(core.PhaseGC)
	prev := e.SetCLib(true)
	if prev {
		t.Error("clib default should be false")
	}
	e.ALU(core.GarbageCollection, false)
	e.SetCLib(false)
	e.SetPhase(core.PhaseInterpreter)
	e.ALU(core.Execute, false)
	if !s.evs[0].CLib || s.evs[0].Phase != core.PhaseGC {
		t.Errorf("stamps missing: %+v", s.evs[0])
	}
	if s.evs[1].CLib || s.evs[1].Phase != core.PhaseInterpreter {
		t.Errorf("stamps leaked: %+v", s.evs[1])
	}
}

func TestIndJumpMovesEngine(t *testing.T) {
	var s recordSink
	e := NewEngine(&s)
	e.At(0x1000)
	e.IndJump(core.Dispatch, 0x5000)
	e.ALU(core.Execute, false)
	if s.evs[1].PC != 0x5000 {
		t.Errorf("post-indjump PC %#x", s.evs[1].PC)
	}
	if s.evs[0].Target != 0x5000 || s.evs[0].Kind != isa.IndJump {
		t.Errorf("indjump event wrong: %+v", s.evs[0])
	}
}

func TestCodeSpaceBlocks(t *testing.T) {
	cs := NewCodeSpace(mem.NewRegion("code", 0x1000, 1<<16))
	a := cs.Block(16)
	b := cs.Block(16)
	if b <= a {
		t.Errorf("blocks overlap: %#x %#x", a, b)
	}
	if b-a < 16*4 {
		t.Errorf("block too small: %d", b-a)
	}
}

// TestArmedFollowsSink: armed is a function of the sink alone — nil and
// isa.NullSink are unarmed (nil used to dereference on the first event),
// anything else is armed, and SetSink re-derives it.
func TestArmedFollowsSink(t *testing.T) {
	var rec recordSink
	for _, tc := range []struct {
		name  string
		sink  isa.Sink
		armed bool
	}{
		{"nil", nil, false},
		{"null", isa.NullSink{}, false},
		{"count", &isa.CountSink{}, true},
		{"record", &rec, true},
		{"tee", isa.TeeSink{A: &rec, B: isa.NullSink{}}, true},
	} {
		if e := NewEngine(tc.sink); e.Armed() != tc.armed {
			t.Errorf("NewEngine(%s).Armed() = %v, want %v", tc.name, e.Armed(), tc.armed)
		}
		e := NewEngine(&rec)
		if e.SetSink(tc.sink); e.Armed() != tc.armed {
			t.Errorf("SetSink(%s): Armed() = %v, want %v", tc.name, e.Armed(), tc.armed)
		}
	}
}

// TestUnarmedDoesNoWork: on an unarmed engine every emitter — simple and
// compound — leaves the PC offset, the call stack and the C stack where
// they were, and arming it afterwards resumes a well-formed stream.
func TestUnarmedDoesNoWork(t *testing.T) {
	for _, sink := range []isa.Sink{nil, isa.NullSink{}} {
		e := NewEngine(sink)
		e.At(0x1000)
		sp0 := e.CStack().SP()
		e.ALU(core.Execute, false)
		e.ALUn(core.Execute, 3)
		e.Load(core.Stack, 0x9000, true)
		e.Store(core.Stack, 0x9000)
		e.Branch(core.Execute, true)
		e.Jump(core.Dispatch)
		e.Call(core.CFunctionCall, 0x2000)
		e.Ret(core.CFunctionCall)
		e.IndCall(core.CFunctionCall, 0x2000)
		e.CCall(core.CFunctionCall, 0x3000, DefaultCCall)
		e.CReturn(core.CFunctionCall, DefaultCCall)
		e.IndJump(core.Dispatch, 0x5000)
		if e.PC() != 0x1000 || e.Depth() != 0 || e.CStack().SP() != sp0 {
			t.Errorf("unarmed engine moved: pc %#x depth %d sp %#x", e.PC(), e.Depth(), e.CStack().SP())
		}
		var rec recordSink
		e.SetSink(&rec)
		e.ALU(core.Execute, false)
		if len(rec.evs) != 1 || rec.evs[0].PC != 0x1000 {
			t.Errorf("after arming: %+v", rec.evs)
		}
	}
}
