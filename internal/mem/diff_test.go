package mem

import (
	"slices"
	"testing"
)

func TestDiff(t *testing.T) {
	a, b := New(), New()
	a.Write(0x100, 8, 0xdeadbeef)
	b.Write(0x100, 8, 0xdeadbeee) // low byte differs
	b.StoreByte(0x5000, 7)        // page present only in b

	d := Diff(a, b, 0)
	if len(d) != 2 {
		t.Fatalf("Diff = %v, want 2 mismatches", d)
	}
	if d[0].Addr != 0x100 || d[0].A != 0xef || d[0].B != 0xee {
		t.Errorf("first mismatch = %+v", d[0])
	}
	if d[1].Addr != 0x5000 || d[1].A != 0 || d[1].B != 7 {
		t.Errorf("second mismatch = %+v", d[1])
	}
	// Symmetric in content, swapped in byte labels.
	rd := Diff(b, a, 0)
	if len(rd) != 2 || rd[0].A != 0xee || rd[0].B != 0xef {
		t.Errorf("reverse diff = %v", rd)
	}
}

func TestDiffMaxCap(t *testing.T) {
	a, b := New(), New()
	for i := uint64(0); i < 10; i++ {
		b.StoreByte(i, byte(i+1))
	}
	if d := Diff(a, b, 3); len(d) != 3 {
		t.Errorf("capped diff = %v, want 3", d)
	}
}

func TestDiffIdenticalAndCoWAliases(t *testing.T) {
	a := New()
	a.Write(0x200, 8, 0x1122334455667788)
	if d := Diff(a, a, 0); len(d) != 0 {
		t.Errorf("self diff = %v", d)
	}
	// A clone shares pages copy-on-write; Diff must treat shared pages as
	// equal without touching them, and spot post-clone divergence.
	c := a.Clone()
	if d := Diff(a, c, 0); len(d) != 0 {
		t.Errorf("clone diff = %v", d)
	}
	c.StoreByte(0x200, 0x99)
	d := Diff(a, c, 0)
	if len(d) != 1 || d[0].Addr != 0x200 || d[0].A != 0x88 || d[0].B != 0x99 {
		t.Errorf("post-clone diff = %v", d)
	}
}

// TestDiffZeroPageMissing checks that a page allocated in one memory but
// holding only zeros matches the other memory's missing page, whichever
// side holds it.
func TestDiffZeroPageMissing(t *testing.T) {
	a, b := New(), New()
	a.StoreByte(0x3010, 0) // allocates page 3, all zero
	a.StoreByte(0x100, 5)
	b.StoreByte(0x100, 5)
	if d := Diff(a, b, 0); len(d) != 0 {
		t.Errorf("Diff(a, b) = %v, want none", d)
	}
	if d := Diff(b, a, 0); len(d) != 0 {
		t.Errorf("Diff(b, a) = %v, want none", d)
	}
}

// TestDiffMissingPageBytes checks that a nonzero page the other memory
// lacks reports each nonzero byte against zero, in ascending order, and
// nothing for its zero bytes.
func TestDiffMissingPageBytes(t *testing.T) {
	a, b := New(), New()
	a.StoreByte(0x7ff0, 3)
	a.StoreByte(0x7003, 1)
	a.StoreByte(0x7001, 2)
	want := []Mismatch{{0x7001, 2, 0}, {0x7003, 1, 0}, {0x7ff0, 3, 0}}
	if d := Diff(a, b, 0); !slices.Equal(d, want) {
		t.Errorf("Diff(a, b) = %v, want %v", d, want)
	}
	for i := range want {
		want[i].A, want[i].B = want[i].B, want[i].A
	}
	if d := Diff(b, a, 0); !slices.Equal(d, want) {
		t.Errorf("Diff(b, a) = %v, want %v", d, want)
	}
}

// TestDiffMaxAcrossPages checks that max caps the result as a whole, not
// per page: the walk stops inside the second differing page, and the
// pages are visited in address order whatever the map order.
func TestDiffMaxAcrossPages(t *testing.T) {
	a, b := New(), New()
	for pn := uint64(9); pn >= 1; pn-- {
		a.StoreByte(pn<<pageShift, 1)
		a.StoreByte(pn<<pageShift|1, 1)
	}
	d := Diff(a, b, 3)
	want := []Mismatch{{0x1000, 1, 0}, {0x1001, 1, 0}, {0x2000, 1, 0}}
	if !slices.Equal(d, want) {
		t.Errorf("Diff(a, b, 3) = %v, want %v", d, want)
	}
	if d := Diff(a, b, 0); len(d) != 18 {
		t.Errorf("uncapped Diff has %d mismatches, want 18", len(d))
	}
}

// TestDiffEqualAllocs pins the page-level fast path: equal memories with
// distinct page arrays allocate nothing.
func TestDiffEqualAllocs(t *testing.T) {
	a, b := New(), New()
	for _, addr := range []uint64{0x1000, 0x2000, 0x80000} {
		a.Write(addr, 8, addr)
		b.Write(addr, 8, addr)
	}
	b.StoreByte(0x9000, 0)
	if n := testing.AllocsPerRun(10, func() { Diff(a, b, 0) }); n != 0 {
		t.Errorf("Diff of equal memories allocates %.0f objects, want 0", n)
	}
}
