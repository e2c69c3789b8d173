// Package mem lays out the simulated address space shared by the virtual
// machines and the microarchitecture simulator.
//
// Nothing is ever stored at these addresses — the VM keeps its real state
// in Go values — but every simulated object, VM frame, code region, and C
// stack slot is assigned an address here so that the cache hierarchy sees a
// realistic reference stream. The layout loosely mirrors a Linux x86-64
// process image running CPython: low text segments for the interpreter and
// C libraries, a JIT code arena, a data segment for globals and constants,
// a large heap, and a downward-growing C stack.
package mem

import "fmt"

// Fixed region bases. Regions are spaced far apart so they never collide
// even under the largest sweep configurations.
const (
	// InterpCodeBase is the text segment of the interpreter binary.
	InterpCodeBase uint64 = 0x0000_0000_0040_0000
	// CLibCodeBase is the text segment of modeled C libraries (pickle,
	// json, regex engines, libm, ...).
	CLibCodeBase uint64 = 0x0000_0000_00c0_0000
	// JITCodeBase is the arena where compiled traces are placed.
	JITCodeBase uint64 = 0x0000_0000_0400_0000
	// DataBase holds interpreter globals, type objects, and the
	// co_consts arrays of compiled code objects.
	DataBase uint64 = 0x0000_0000_0800_0000
	// HeapBase is the start of the simulated Python heap. The nursery,
	// old space, and refcount arenas are carved from it.
	HeapBase uint64 = 0x0000_0001_0000_0000
	// HeapSpan is the maximum span of the Python heap.
	HeapSpan uint64 = 0x0000_0007_0000_0000
	// CStackTop is the top of the downward-growing C stack used by the
	// C-calling-convention model.
	CStackTop uint64 = 0x0000_7fff_ffff_f000
)

// ExhaustedError reports that a region could not satisfy an allocation.
// Callers that allocate on behalf of guest programs (the simulated Python
// heap) map it to an in-language MemoryError; infrastructure regions sized
// far beyond any realistic demand treat it as an internal fault.
type ExhaustedError struct {
	Region string
	Size   uint64
	Used   uint64
	Want   uint64
}

func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("mem: region %s exhausted (size %d, used %d, want %d)",
		e.Region, e.Size, e.Used, e.Want)
}

// Region is a contiguous range of simulated addresses with a bump pointer.
type Region struct {
	name string
	base uint64
	size uint64
	cur  uint64
}

// NewRegion returns a region covering [base, base+size).
func NewRegion(name string, base, size uint64) *Region {
	return &Region{name: name, base: base, size: size, cur: base}
}

// Name returns the region's name.
func (r *Region) Name() string { return r.name }

// Base returns the first address of the region.
func (r *Region) Base() uint64 { return r.base }

// Size returns the region's capacity in bytes.
func (r *Region) Size() uint64 { return r.size }

// End returns one past the last address of the region.
func (r *Region) End() uint64 { return r.base + r.size }

// Used returns the number of bytes allocated so far.
func (r *Region) Used() uint64 { return r.cur - r.base }

// Avail returns the number of bytes remaining.
func (r *Region) Avail() uint64 { return r.size - r.Used() }

// Contains reports whether addr falls inside the region.
func (r *Region) Contains(addr uint64) bool {
	return addr >= r.base && addr < r.base+r.size
}

// Alloc bump-allocates n bytes aligned to align (a power of two) and
// returns the address, or 0 and false if the region is full.
func (r *Region) Alloc(n, align uint64) (uint64, bool) {
	if align == 0 {
		align = 1
	}
	p := (r.cur + align - 1) &^ (align - 1)
	if p+n > r.base+r.size {
		return 0, false
	}
	r.cur = p + n
	return p, true
}

// AllocErr is Alloc with a typed error on exhaustion, for callers that can
// recover (the simulated Python heap maps it to MemoryError).
func (r *Region) AllocErr(n, align uint64) (uint64, error) {
	p, ok := r.Alloc(n, align)
	if !ok {
		return 0, &ExhaustedError{Region: r.name, Size: r.size, Used: r.Used(), Want: n}
	}
	return p, nil
}

// MustAlloc is Alloc but panics on exhaustion — with a typed
// *ExhaustedError, so a recover boundary can report it structurally. Used
// for regions sized far beyond any realistic demand (code, data).
func (r *Region) MustAlloc(n, align uint64) uint64 {
	p, err := r.AllocErr(n, align)
	if err != nil {
		panic(err)
	}
	return p
}

// Reset rewinds the bump pointer to the region base.
func (r *Region) Reset() { r.cur = r.base }

// SetCur repositions the bump pointer; addr must lie inside the region.
func (r *Region) SetCur(addr uint64) {
	if addr < r.base || addr > r.base+r.size {
		panic(fmt.Sprintf("mem: SetCur(%#x) outside region %s [%#x,%#x)",
			addr, r.name, r.base, r.base+r.size))
	}
	r.cur = addr
}

// Cur returns the current bump pointer.
func (r *Region) Cur() uint64 { return r.cur }

// FreeList is a segregated-fit free-list allocator layered on a Region,
// modeling CPython's pymalloc behaviour: freed blocks are reused
// most-recently-freed-first, which keeps the reference stream cache-hot.
type FreeList struct {
	region  *Region
	classes map[uint64][]uint64 // size class -> LIFO of free addresses
	// Reused counts allocations satisfied from the free list.
	Reused uint64
	// Fresh counts allocations satisfied by bump allocation.
	Fresh uint64
	// FreeBytes is the total size of blocks currently on the free list;
	// region.Used() - FreeBytes is the exact live footprint of the
	// allocator, independent of how callers account payload sizes.
	FreeBytes uint64
}

// NewFreeList returns a free-list allocator over region.
func NewFreeList(region *Region) *FreeList {
	return &FreeList{region: region, classes: make(map[uint64][]uint64)}
}

// sizeClass rounds n up to its allocation class (16-byte granules, like
// pymalloc).
func sizeClass(n uint64) uint64 {
	if n == 0 {
		n = 1
	}
	return (n + 15) &^ 15
}

// Alloc returns an address for an n-byte block, preferring recently freed
// blocks of the same size class. The second result reports whether the
// block was reused from the free list.
func (f *FreeList) Alloc(n uint64) (addr uint64, reused bool) {
	addr, reused, err := f.AllocErr(n)
	if err != nil {
		panic(err)
	}
	return addr, reused
}

// AllocErr is Alloc with a typed *ExhaustedError instead of a panic when
// the backing region is full, so the heap can surface MemoryError.
func (f *FreeList) AllocErr(n uint64) (addr uint64, reused bool, err error) {
	c := sizeClass(n)
	if lst := f.classes[c]; len(lst) > 0 {
		addr = lst[len(lst)-1]
		f.classes[c] = lst[:len(lst)-1]
		f.Reused++
		f.FreeBytes -= c
		return addr, true, nil
	}
	addr, err = f.region.AllocErr(c, 16)
	if err != nil {
		return 0, false, err
	}
	f.Fresh++
	return addr, false, nil
}

// Free returns the n-byte block at addr to the free list.
func (f *FreeList) Free(addr, n uint64) {
	c := sizeClass(n)
	f.classes[c] = append(f.classes[c], addr)
	f.FreeBytes += c
}

// LiveBytes returns the allocator's exact live footprint: bytes handed out
// and not yet freed (size-class granularity).
func (f *FreeList) LiveBytes() uint64 { return f.region.Used() - f.FreeBytes }

// retainClasses bounds the size-class map Reset empties in place; a
// larger one (a job that freed blocks of many distinct sizes) is
// dropped, so an allocator never keeps its largest job's table.
const retainClasses = 256

// Reset drops all free-list state and rewinds the region to its base,
// the state NewFreeList leaves. The per-class lists are released; the
// class map is reused unless it grew past retainClasses.
func (f *FreeList) Reset() {
	if len(f.classes) > retainClasses {
		f.classes = make(map[uint64][]uint64)
	} else {
		clear(f.classes)
	}
	f.Reused, f.Fresh = 0, 0
	f.FreeBytes = 0
	f.region.Reset()
}

// Region returns the backing region.
func (f *FreeList) Region() *Region { return f.region }

// CStack models the downward-growing C stack used by the C-calling-
// convention cost model. Push returns the new frame's base address.
type CStack struct {
	top uint64
	sp  uint64
}

// NewCStack returns a C stack whose first frame starts at top.
func NewCStack(top uint64) *CStack {
	return &CStack{top: top, sp: top}
}

// Push reserves n bytes and returns the new stack pointer.
func (s *CStack) Push(n uint64) uint64 {
	s.sp -= n
	return s.sp
}

// Pop releases n bytes.
func (s *CStack) Pop(n uint64) { s.sp += n }

// SP returns the current stack pointer.
func (s *CStack) SP() uint64 { return s.sp }

// Depth returns the number of bytes currently on the stack.
func (s *CStack) Depth() uint64 { return s.top - s.sp }

// Reset empties the stack.
func (s *CStack) Reset() { s.sp = s.top }
