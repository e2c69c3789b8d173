package gc

import (
	"testing"

	"repro/internal/core"
	"repro/internal/emit"
	"repro/internal/faults"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/pyobj"
)

func newHeap(cfg Config) (*Heap, *rootList) {
	eng := emit.NewEngine(isa.NullSink{})
	cs := emit.NewCodeSpace(mem.NewRegion("code", mem.InterpCodeBase, 1<<20))
	h := New(cfg, eng, cs)
	roots := &rootList{}
	h.SetRoots(roots)
	return h, roots
}

type rootList struct{ objs []pyobj.Object }

func (r *rootList) Roots(visit func(pyobj.Object)) {
	for _, o := range r.objs {
		visit(o)
	}
}

func TestRefCountLifecycle(t *testing.T) {
	h, _ := newHeap(DefaultRefCountConfig())
	a := &pyobj.Int{V: 1}
	h.Allocate(a, core.Boxing)
	if a.H.RC != 1 || a.H.Addr == 0 {
		t.Fatalf("allocation: rc=%d addr=%#x", a.H.RC, a.H.Addr)
	}
	addr := a.H.Addr
	h.Incref(a)
	h.Decref(a)
	if a.H.Mark {
		t.Fatal("live object deallocated")
	}
	h.Decref(a) // rc hits 0: freed
	if !a.H.Mark {
		t.Fatal("dead object not deallocated")
	}
	// The freed block is reused by the next same-size allocation.
	b := &pyobj.Int{V: 2}
	h.Allocate(b, core.Boxing)
	if b.H.Addr != addr {
		t.Errorf("free list did not reuse %#x, got %#x", addr, b.H.Addr)
	}
	if h.Stats.FreelistReuse != 1 {
		t.Errorf("reuse not counted: %+v", h.Stats)
	}
}

func TestRefCountCascade(t *testing.T) {
	h, _ := newHeap(DefaultRefCountConfig())
	child := &pyobj.Int{V: 5}
	h.Allocate(child, core.Boxing)
	l := &pyobj.List{Items: []pyobj.Object{child}}
	h.Allocate(l, core.Execute)
	// The list owns child's only reference after this decref.
	h.Decref(l)
	if !l.H.Mark || !child.H.Mark {
		t.Error("cascade did not free container and child")
	}
}

// Regression: reference cycles must not loop or double-free.
func TestRefCountCycleTerminates(t *testing.T) {
	h, _ := newHeap(DefaultRefCountConfig())
	a := &pyobj.List{}
	b := &pyobj.List{}
	h.Allocate(a, core.Execute)
	h.Allocate(b, core.Execute)
	a.Items = []pyobj.Object{b}
	b.Items = []pyobj.Object{a}
	h.Incref(b) // reference from a
	h.Incref(a) // reference from b
	// Drop the external references: the cycle becomes garbage.
	h.Decref(a)
	h.Decref(b) // must terminate (cycles leak under pure refcounting)
}

func TestMinorGCPreservesReachable(t *testing.T) {
	h, roots := newHeap(DefaultGenConfig(4 << 10))
	keep := &pyobj.List{}
	h.Allocate(keep, core.Execute)
	keep.ItemsAddr = h.AllocPayload(64, core.Execute)
	keep.ItemsCap = 8
	roots.objs = append(roots.objs, keep)

	// Churn garbage until collections happen; attach one survivor.
	for i := 0; i < 500; i++ {
		o := &pyobj.Int{V: int64(i)}
		h.Allocate(o, core.Boxing)
		if i == 100 {
			keep.Items = append(keep.Items, o)
		}
	}
	if h.Stats.MinorGCs == 0 {
		t.Fatal("no minor GC with 4k nursery")
	}
	if !keep.Hdr().Old {
		t.Error("root survivor not promoted")
	}
	if !keep.Items[0].Hdr().Old {
		t.Error("reachable child not promoted")
	}
	if keep.ItemsAddr < h.NurseryBase() {
		t.Error("payload address invalid")
	}
	// All promoted addresses must be outside the nursery.
	nEnd := h.NurseryBase() + h.Config().NurseryBytes
	if a := keep.Hdr().Addr; a >= h.NurseryBase() && a < nEnd {
		t.Errorf("promoted object still at nursery address %#x", a)
	}
}

func TestWriteBarrierRemembersOldToYoung(t *testing.T) {
	h, roots := newHeap(DefaultGenConfig(4 << 10))
	old := &pyobj.List{}
	h.Allocate(old, core.Execute)
	roots.objs = append(roots.objs, old)
	h.CollectMinor() // promote old
	if !old.Hdr().Old {
		t.Fatal("setup: not promoted")
	}
	// Detach from roots: only the remembered set can keep its new
	// child alive through the next minor GC... (old itself stays via
	// oldObjs; the CHILD must survive via the barrier).
	young := &pyobj.Int{V: 9}
	h.Allocate(young, core.Boxing)
	old.Items = append(old.Items, young)
	h.WriteBarrier(old, young)
	if h.Stats.BarrierHits != 1 {
		t.Fatalf("barrier not recorded: %+v", h.Stats)
	}
	roots.objs = nil
	h.CollectMinor()
	if !young.Hdr().Old {
		t.Error("remembered-set child lost in minor GC")
	}
}

func TestMajorGCFreesOldGarbage(t *testing.T) {
	h, roots := newHeap(DefaultGenConfig(4 << 10))
	live := &pyobj.List{}
	h.Allocate(live, core.Execute)
	roots.objs = append(roots.objs, live)
	for i := 0; i < 2000; i++ {
		o := &pyobj.Tuple{Items: []pyobj.Object{}}
		h.Allocate(o, core.Execute)
		if i%2 == 0 {
			// survives one minor GC (reachable), then released
			live.Items = []pyobj.Object{o}
		}
	}
	h.CollectMinor()
	live.Items = nil
	before := h.OldCount()
	h.CollectMajor()
	if h.OldCount() >= before {
		t.Errorf("major GC freed nothing: %d -> %d", before, h.OldCount())
	}
	if !live.Hdr().Mark == false && live.Hdr().Mark {
		t.Error("mark bit left set")
	}
	if h.Stats.MajorGCs == 0 {
		t.Error("major GC not counted")
	}
}

func TestBigAllocationsBypassNursery(t *testing.T) {
	h, roots := newHeap(DefaultGenConfig(8 << 10))
	_ = roots
	addr := h.AllocPayload(4<<10, core.Execute) // >= nursery/4
	nEnd := h.NurseryBase() + h.Config().NurseryBytes
	if addr >= h.NurseryBase() && addr < nEnd {
		t.Errorf("big payload placed in nursery at %#x", addr)
	}
	if h.Stats.BigAllocs != 1 {
		t.Errorf("big alloc not counted: %+v", h.Stats)
	}
}

func TestGCEventsCarryGCPhase(t *testing.T) {
	var sink isa.CountSink
	eng := emit.NewEngine(&sink)
	cs := emit.NewCodeSpace(mem.NewRegion("code", mem.InterpCodeBase, 1<<20))
	h := New(DefaultGenConfig(4<<10), eng, cs)
	roots := &rootList{}
	h.SetRoots(roots)
	keep := &pyobj.List{}
	h.Allocate(keep, core.Execute)
	roots.objs = append(roots.objs, keep)
	for i := 0; i < 500; i++ {
		h.Allocate(&pyobj.Int{V: int64(i)}, core.Boxing)
	}
	if h.Stats.MinorGCs == 0 {
		t.Fatal("no GC happened")
	}
	if sink.ByPhase[core.PhaseGC] == 0 {
		t.Error("collection emitted no GC-phase events")
	}
	if sink.ByCat[core.GarbageCollection] == 0 {
		t.Error("collection emitted no GC-category events")
	}
}

// ---- Resource governor ----

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"gen without nursery", Config{Kind: Generational}},
		{"nursery over half span", Config{Kind: Generational, NurseryBytes: mem.HeapSpan}},
		{"unknown kind", Config{Kind: Kind(42)}},
	}
	for _, c := range cases {
		err := Validate(c.cfg)
		if err == nil {
			t.Errorf("%s: Validate accepted", c.name)
			continue
		}
		if _, ok := err.(*ConfigError); !ok {
			t.Errorf("%s: error %T, want *ConfigError", c.name, err)
		}
	}
	if err := Validate(DefaultRefCountConfig()); err != nil {
		t.Errorf("refcount config rejected: %v", err)
	}
	if err := Validate(DefaultGenConfig(4 << 10)); err != nil {
		t.Errorf("gen config rejected: %v", err)
	}
}

func TestNewPanicsTypedOnBadConfig(t *testing.T) {
	defer func() {
		if _, ok := recover().(*ConfigError); !ok {
			t.Error("New did not panic with *ConfigError")
		}
	}()
	newHeap(Config{Kind: Generational}) // no nursery size
}

func TestUsedBytesRefCountTracksFrees(t *testing.T) {
	h, _ := newHeap(DefaultRefCountConfig())
	if h.UsedBytes() != 0 {
		t.Fatalf("fresh heap used %d", h.UsedBytes())
	}
	o := &pyobj.Int{V: 1}
	h.Allocate(o, core.Boxing)
	used := h.UsedBytes()
	if used == 0 {
		t.Fatal("allocation not reflected in UsedBytes")
	}
	h.Decref(o) // freed immediately
	if h.UsedBytes() != 0 {
		t.Errorf("used %d after freeing the only object", h.UsedBytes())
	}
}

func TestHeapLimitOOMWithoutHandler(t *testing.T) {
	h, _ := newHeap(DefaultRefCountConfig())
	h.SetLimit(256)
	defer func() {
		e, ok := recover().(*OutOfMemoryError)
		if !ok {
			t.Fatal("limit breach did not panic with *OutOfMemoryError")
		}
		if e.Limit != 256 || e.Need == 0 {
			t.Errorf("bad error fields: %+v", e)
		}
	}()
	for i := 0; i < 100; i++ {
		h.Allocate(&pyobj.Int{V: int64(i)}, core.Boxing) // never freed
	}
	t.Fatal("allocated past the limit without OOM")
}

func TestHeapLimitOOMHandlerInvoked(t *testing.T) {
	h, _ := newHeap(DefaultRefCountConfig())
	h.SetLimit(128)
	type sentinel struct{ need uint64 }
	h.SetOOM(func(need uint64) { panic(&sentinel{need}) })
	defer func() {
		s, ok := recover().(*sentinel)
		if !ok {
			t.Fatal("OOM handler not invoked")
		}
		if s.need == 0 {
			t.Error("handler got zero need")
		}
	}()
	for i := 0; i < 100; i++ {
		h.Allocate(&pyobj.Int{V: int64(i)}, core.Boxing)
	}
}

// A generational heap whose footprint is garbage must survive a limit that
// live data fits under: the emergency collection reclaims before OOM.
func TestHeapLimitEmergencyCollection(t *testing.T) {
	h, _ := newHeap(DefaultGenConfig(64 << 10))
	h.SetLimit(32 << 10) // half the nursery: bump pointer alone would breach
	for i := 0; i < 5000; i++ {
		h.Allocate(&pyobj.Int{V: int64(i)}, core.Boxing) // all garbage
	}
	if h.Stats.MinorGCs == 0 {
		t.Error("limit pressure never forced a collection")
	}
	if h.UsedBytes() > 32<<10 {
		t.Errorf("used %d exceeds limit after collections", h.UsedBytes())
	}
}

func TestGraceSuspendsLimit(t *testing.T) {
	h, _ := newHeap(DefaultRefCountConfig())
	h.SetLimit(1) // everything breaches
	h.BeginGrace()
	h.Allocate(&pyobj.Int{V: 1}, core.Boxing) // must not panic
	h.EndGrace()
	defer func() {
		if recover() == nil {
			t.Error("limit not re-enabled after EndGrace")
		}
	}()
	h.Allocate(&pyobj.Int{V: 2}, core.Boxing)
}

func TestAllocFailInjection(t *testing.T) {
	h, _ := newHeap(DefaultRefCountConfig())
	h.SetFaults(faults.NewEveryNth(faults.AllocFail, 3))
	var failed int
	h.SetOOM(func(need uint64) { failed++; panic(&OutOfMemoryError{Need: need}) })
	for i := 0; i < 9; i++ {
		func() {
			defer func() { recover() }()
			h.Allocate(&pyobj.Int{V: int64(i)}, core.Boxing)
		}()
	}
	if failed != 3 {
		t.Errorf("every-3rd alloc fault fired %d/9 times, want 3", failed)
	}
}

func TestTickPolledAtCollectionEntry(t *testing.T) {
	h, roots := newHeap(DefaultGenConfig(4 << 10))
	_ = roots
	var ticks int
	h.SetTick(func() { ticks++ })
	for i := 0; i < 500; i++ {
		h.Allocate(&pyobj.Int{V: int64(i)}, core.Boxing)
	}
	if h.Stats.MinorGCs == 0 {
		t.Fatal("no collections happened")
	}
	if ticks == 0 {
		t.Error("tick not polled during collection")
	}
}

// TestImmortalHeadersUnread pins what lets a reused VM leave immortal
// headers as a job left them: reference counting moves an immortal's RC
// but never frees it or counts a bad decref, and neither collector sets
// Old, Mark or Remembered on it.
func TestImmortalHeadersUnread(t *testing.T) {
	h, _ := newHeap(DefaultRefCountConfig())
	imm := &pyobj.Int{H: pyobj.Header{Addr: mem.DataBase, Size: 24, Immortal: true}, V: 7}
	for i := 0; i < 3; i++ {
		h.Decref(imm)
	}
	l := &pyobj.List{Items: []pyobj.Object{imm}}
	h.Allocate(l, core.Execute)
	h.Decref(l) // the list dies and decrefs its immortal item
	if imm.H.Mark || h.Stats.Frees != 1 || h.Stats.BadDecrefs != 0 {
		t.Fatalf("refcounting read an immortal's RC: mark=%v %+v", imm.H.Mark, h.Stats)
	}

	g, roots := newHeap(DefaultGenConfig(MinNursery))
	imm = &pyobj.Int{H: pyobj.Header{Addr: mem.DataBase, Size: 24, Immortal: true}, V: 7}
	old := &pyobj.List{Items: []pyobj.Object{imm}}
	g.Allocate(old, core.Execute)
	roots.objs = []pyobj.Object{old, imm}
	g.CollectMinor() // promotes old
	g.WriteBarrier(old, imm)
	g.WriteBarrier(imm, old)
	g.CollectMinor()
	g.CollectMajor()
	if imm.H != (pyobj.Header{Addr: mem.DataBase, Size: 24, Immortal: true}) {
		t.Fatalf("a collector wrote an immortal's header: %+v", imm.H)
	}
}

// TestHeapResetRepeatsAddresses: after a workload with frees and
// collections, Reset leaves a heap that hands out the same addresses
// and counts the same statistics as a new one.
func TestHeapResetRepeatsAddresses(t *testing.T) {
	for _, cfg := range []Config{DefaultRefCountConfig(), DefaultGenConfig(MinNursery)} {
		work := func(h *Heap, roots *rootList) ([]uint64, Stats) {
			var addrs []uint64
			roots.objs = nil
			for i := 0; i < 400; i++ {
				o := &pyobj.List{Items: make([]pyobj.Object, i%7)}
				h.Allocate(o, core.Execute)
				o.ItemsAddr = h.AllocPayload(uint64(8*(i%7)), core.Execute)
				addrs = append(addrs, o.H.Addr, o.ItemsAddr)
				if i%3 == 0 {
					roots.objs = append(roots.objs, o)
				} else {
					h.Decref(o)
				}
			}
			h.CollectMinor()
			return addrs, h.Stats
		}
		fresh, froots := newHeap(cfg)
		wantAddrs, wantStats := work(fresh, froots)
		h, roots := newHeap(cfg)
		work(h, roots)
		h.SetLimit(1 << 30)
		h.BeginGrace()
		h.Reset()
		gotAddrs, gotStats := work(h, roots)
		if gotStats != wantStats {
			t.Errorf("kind %d: stats after Reset %+v, fresh %+v", cfg.Kind, gotStats, wantStats)
		}
		for i := range wantAddrs {
			if gotAddrs[i] != wantAddrs[i] {
				t.Fatalf("kind %d: address %d after Reset %#x, fresh %#x", cfg.Kind, i, gotAddrs[i], wantAddrs[i])
			}
		}
	}
}
