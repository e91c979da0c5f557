package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/arch"
	"repro/internal/asm"
	"repro/internal/expr"
)

// Copy-on-write memory (state.go): forks share the page table and the
// pages until one side writes, the written-byte count stays exact, and
// no sibling's write, on this goroutine or another worker's, reaches
// through a shared page.

// fillOverlay writes size bytes starting at addr.
func fillOverlay(b *expr.Builder, m *Memory, addr uint64, size int) {
	for i := 0; i < size; i++ {
		m.SetByte(addr+uint64(i), b.Const(8, uint64(i)&0xff))
	}
}

// TestForkSiblingIsolation: after a fork both sides write the same page;
// neither sees the other's write, and both still read the bytes written
// before the fork.
func TestForkSiblingIsolation(t *testing.T) {
	b := expr.NewBuilder()
	parent := newMemory(map[uint64]byte{0x13e: 0x5a}, 0xffffffff)
	parent.Write(b, 0x100, 4, b.Const(32, 0x11223344), true)
	child := parent.clone()
	parent.SetByte(0x101, b.Const(8, 0xaa))
	parent.SetByte(0x102, b.Const(8, 0xdd))
	child.SetByte(0x101, b.Const(8, 0xbb))
	child.SetByte(0x13e, b.Const(8, 0xcc))

	for _, tc := range []struct {
		name string
		m    *Memory
		addr uint64
		want uint64
	}{
		{"parent pre-fork byte", parent, 0x100, 0x44},
		{"child pre-fork byte", child, 0x100, 0x44},
		{"parent own write", parent, 0x101, 0xaa},
		{"child own write", child, 0x101, 0xbb},
		{"child under parent write", child, 0x102, 0x22},
		{"parent base under child write", parent, 0x13e, 0x5a},
		{"child write over base", child, 0x13e, 0xcc},
	} {
		if got := tc.m.ByteAt(b, tc.addr).ConstVal(); got != tc.want {
			t.Errorf("%s: %#x reads %#x, want %#x", tc.name, tc.addr, got, tc.want)
		}
	}
	if got := parent.ByteAt(b, 0).ConstVal(); got != 0 {
		t.Errorf("unwritten, unmapped byte reads %#x", got)
	}
	if parent.OverlaySize() != 4 || child.OverlaySize() != 5 {
		t.Errorf("overlay sizes parent=%d child=%d, want 4 and 5", parent.OverlaySize(), child.OverlaySize())
	}

	// A second fork of the same child: the grandchild's writes stay out
	// of the child's view and vice versa.
	grand := child.clone()
	grand.SetByte(0x102, b.Const(8, 0x01))
	child.SetByte(0x103, b.Const(8, 0x02))
	if got := child.ByteAt(b, 0x102).ConstVal(); got != 0x22 {
		t.Errorf("child sees grandchild write: %#x", got)
	}
	if got := grand.ByteAt(b, 0x103).ConstVal(); got != 0x11 {
		t.Errorf("grandchild sees child write: %#x", got)
	}
}

// sink keeps benchmarked clones on the heap.
var sink *Memory

// cloneCost returns the allocations and bytes one clone of a size-byte
// overlay costs.
func cloneCost(size int) (allocs float64, bytes uint64) {
	b := expr.NewBuilder()
	m := newMemory(nil, 0xffffffff)
	fillOverlay(b, m, 0x1000, size)
	allocs = testing.AllocsPerRun(100, func() { sink = m.clone() })
	const n = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		sink = m.clone()
	}
	runtime.ReadMemStats(&after)
	return allocs, (after.TotalAlloc - before.TotalAlloc) / n
}

// TestForkCostIndependentOfOverlay: a fork shares the overlay instead of
// copying it, so cloning a 64 KiB overlay costs no more allocations and
// no more bytes than cloning a 1 KiB one.
func TestForkCostIndependentOfOverlay(t *testing.T) {
	smallAllocs, smallBytes := cloneCost(1 << 10)
	bigAllocs, bigBytes := cloneCost(64 << 10)
	if bigAllocs != smallAllocs {
		t.Errorf("clone allocations: %v at 64 KiB vs %v at 1 KiB", bigAllocs, smallAllocs)
	}
	// A few bytes of slack absorb allocations other goroutines make
	// while the loop runs; copying even the page table of a 64 KiB
	// overlay would cost kilobytes.
	if bigBytes > smallBytes+64 {
		t.Errorf("clone bytes: %d at 64 KiB vs %d at 1 KiB", bigBytes, smallBytes)
	}
}

// TestOverlaySizeExactAfterOverwrites drives random writes (with
// overwrites and address aliasing under the mask), forks and merges
// against a map model: every Memory's contents and its OverlaySize, on
// which the MaxStateTerms governor rests, must match the model exactly.
func TestOverlaySizeExactAfterOverwrites(t *testing.T) {
	b := expr.NewBuilder()
	e := &Engine{B: b}
	base := map[uint64]byte{0x10: 7, 0x90: 9}
	type pair struct {
		m     *Memory
		model map[uint64]*expr.Expr
	}
	copyModel := func(src map[uint64]*expr.Expr) map[uint64]*expr.Expr {
		dst := make(map[uint64]*expr.Expr, len(src))
		for a, v := range src {
			dst[a] = v
		}
		return dst
	}
	mems := []pair{{newMemory(base, 0xffff), map[uint64]*expr.Expr{}}}
	rng := rand.New(rand.NewSource(1))
	check := func(step int) {
		for i, p := range mems {
			if p.m.OverlaySize() != len(p.model) {
				t.Fatalf("step %d, memory %d: OverlaySize %d, want %d", step, i, p.m.OverlaySize(), len(p.model))
			}
			seen := 0
			p.m.each(func(a uint64, v *expr.Expr) {
				seen++
				if p.model[a] != v {
					t.Fatalf("step %d, memory %d: byte %#x is %v, want %v", step, i, a, v, p.model[a])
				}
			})
			if seen != len(p.model) {
				t.Fatalf("step %d, memory %d: each visited %d bytes, want %d", step, i, seen, len(p.model))
			}
		}
	}
	for step := 0; step < 3000; step++ {
		i := rng.Intn(len(mems))
		switch r := rng.Intn(20); {
		case r == 0 && len(mems) < 8:
			mems = append(mems, pair{mems[i].m.clone(), copyModel(mems[i].model)})
		case r == 1 && len(mems) > 1:
			j := rng.Intn(len(mems))
			if j == i {
				continue
			}
			c := b.Eq(b.Var(8, fmt.Sprintf("c%d", step)), b.Const(8, 0))
			a, bm := mems[i], mems[j]
			merged := e.mergeMemory(c, a.m, bm.m)
			model := map[uint64]*expr.Expr{}
			for addr := range a.model {
				model[addr] = nil
			}
			for addr := range bm.model {
				model[addr] = nil
			}
			for addr := range model {
				va, vb := a.model[addr], bm.model[addr]
				if va == nil {
					va = b.Const(8, uint64(base[addr]))
				}
				if vb == nil {
					vb = b.Const(8, uint64(base[addr]))
				}
				model[addr] = e.ite(c, va, vb)
			}
			mems[i] = pair{merged, model}
		default:
			addr := uint64(rng.Intn(300))
			if rng.Intn(4) == 0 {
				addr += 0x10000 // aliases addr under the 16-bit mask
			}
			v := b.Const(8, uint64(rng.Intn(4)))
			mems[i].m.SetByte(addr, v)
			mems[i].model[addr&0xffff] = v
		}
		check(step)
	}
}

// TestSharedPagesCopyOnWrite: two forked siblings share every page of
// a three-page buffer, as siblings running on two workers do. One
// rewrites the whole buffer on another goroutine while the other reads
// it, both interning into one shared builder; the race detector watches
// the shared pages. Neither sibling sees the other's writes.
func TestSharedPagesCopyOnWrite(t *testing.T) {
	b := expr.NewBuilder()
	b.Share()
	x, y := b.Var(32, "x"), b.Var(32, "y")
	const lo, size = 0x2000, 3 * pageSize
	st := newMemory(nil, 0xffffffff)
	for off := uint64(0); off < size; off += 4 {
		st.Write(b, lo+off, 4, b.Add(x, b.Const(32, off)), true)
	}
	sib := st.clone()
	before := map[uint64]*expr.Expr{}
	st.each(func(a uint64, v *expr.Expr) { before[a] = v })

	done := make(chan struct{})
	go func() {
		defer close(done)
		for off := uint64(0); off < size; off += 4 {
			sib.Write(b, lo+off, 4, b.Xor(y, b.Const(32, off)), true)
		}
	}()
	for i := 0; i < 20; i++ {
		for off := uint64(0); off < size; off += 4 {
			st.Read(b, lo+off, 4, true)
		}
	}
	<-done

	if st.OverlaySize() != len(before) || sib.OverlaySize() != len(before) {
		t.Fatalf("overlay sizes %d and %d, want %d", st.OverlaySize(), sib.OverlaySize(), len(before))
	}
	st.each(func(a uint64, v *expr.Expr) {
		if before[a] != v {
			t.Fatalf("byte %#x changed by the sibling's write", a)
		}
	})
	for off := uint64(0); off < size; off += 4 {
		if got, want := sib.Read(b, lo+off, 4, true), b.Xor(y, b.Const(32, off)); got != want {
			t.Fatalf("sibling reads %v at %#x, want its own write %v", got, lo+off, want)
		}
	}

	// The first state writes after the fork too; the sibling does not
	// see it.
	st.SetByte(lo, b.Const(8, 0xee))
	if got := sib.ByteAt(b, lo); got != b.Extract(y, 7, 0) {
		t.Errorf("sibling sees the other state's later write: %v", got)
	}
}

// TestParallelStealsWithSharedPages: forked siblings share the pages of
// a buffer written before the forks and keep writing into those pages
// afterwards, across 4 workers. The end states must equal the serial
// run's, path by path.
func TestParallelStealsWithSharedPages(t *testing.T) {
	src := `
_start:
	li r4, buf
	li r5, 48
	li r6, 7
	li r7, 0
fill:
	sw r6, 0(r4)
	addi r4, r4, 4
	addi r6, r6, 3
	addi r5, r5, -1
	bne r5, r7, fill
	li r4, buf
`
	for i := 0; i < 6; i++ {
		src += fmt.Sprintf(`	trap 1
	li r2, %d
	bltu r1, r2, low%d
	sb r1, %d(r4)
	jmp next%d
low%d:
	sb r2, %d(r4)
next%d:
`, 40+30*i, i, 33*i, i, i, 33*i+1, i)
	}
	src += "\tlw r1, 0(r4)\n\ttrap 2\n\thalt\nbuf:\t.space 192\n"

	a := arch.MustLoad("tiny32")
	p, err := asm.New(a).Assemble("steal.s", src)
	if err != nil {
		t.Fatal(err)
	}
	endStates := func(workers int) map[uint64]string {
		e := NewEngine(a, p, Options{InputBytes: 6, MaxPaths: 1000, Workers: workers, CaptureEndState: true})
		r, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Paths) != 64 {
			t.Fatalf("workers=%d: %d paths, want 64", workers, len(r.Paths))
		}
		out := map[uint64]string{}
		for _, pr := range r.Paths {
			out[pr.sig] = fmt.Sprint(pr.Status, pr.Output, pr.End.Mem)
		}
		return out
	}
	serial := endStates(1)
	par := endStates(4)
	for sig, want := range serial {
		if par[sig] != want {
			t.Errorf("path %#x: parallel end state\n  %s\nwant\n  %s", sig, par[sig], want)
		}
	}
}

// BenchmarkForkClone measures a fork of a 1 KiB and a 64 KiB overlay:
// the clone itself, and the clone plus the child's first write, which
// copies the page table and one page.
func BenchmarkForkClone(b *testing.B) {
	for _, size := range []int{1 << 10, 64 << 10} {
		eb := expr.NewBuilder()
		m := newMemory(nil, 0xffffffff)
		fillOverlay(eb, m, 0x1000, size)
		v := eb.Const(8, 0xff)
		b.Run(fmt.Sprintf("clone/%dKiB", size>>10), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink = m.clone()
			}
		})
		b.Run(fmt.Sprintf("clone+write/%dKiB", size>>10), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := m.clone()
				c.SetByte(0x1000, v)
				sink = c
			}
		})
	}
}

// TestStateBudgetCountsBytesNotWrites: a program overwrites the same 8
// bytes 20 times and then forks three times. The state-term budget sees
// 8 written bytes plus the path condition, so a budget of 10 kills
// every state at the third fork and a budget of 11 kills none.
func TestStateBudgetCountsBytesNotWrites(t *testing.T) {
	src := `
_start:
	li r4, buf
	li r5, 20
	li r7, 0
again:
	sw r5, 0(r4)
	sw r5, 4(r4)
	addi r5, r5, -1
	bne r5, r7, again
`
	for i := 0; i < 3; i++ {
		src += fmt.Sprintf("\ttrap 1\n\tli r2, 100\n\tbltu r1, r2, skip%d\n\taddi r3, r3, 1\nskip%d:\n", i, i)
	}
	src += "\thalt\nbuf:\t.space 8\n"
	a := arch.MustLoad("tiny32")
	p, err := asm.New(a).Assemble("budget.s", src)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ budget, killed, halted int }{{10, 8, 0}, {11, 0, 8}} {
		r, err := NewEngine(a, p, Options{InputBytes: 3, MaxStateTerms: tc.budget}).Run()
		if err != nil {
			t.Fatal(err)
		}
		killed, halted := 0, 0
		for _, pr := range r.Paths {
			switch pr.Status {
			case StatusKilled:
				killed++
			case StatusHalt:
				halted++
			}
		}
		if killed != tc.killed || halted != tc.halted {
			t.Errorf("budget %d: %d killed, %d halted; want %d and %d", tc.budget, killed, halted, tc.killed, tc.halted)
		}
	}
}
