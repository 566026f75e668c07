package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestReadWriteWidths(t *testing.T) {
	m := New()
	m.Write(0x1000, 8, 0x1122334455667788)
	if got := m.Read(0x1000, 8); got != 0x1122334455667788 {
		t.Errorf("Read8 = %#x", got)
	}
	if got := m.Read(0x1000, 4); got != 0x55667788 {
		t.Errorf("Read4 = %#x", got)
	}
	if got := m.Read(0x1004, 4); got != 0x11223344 {
		t.Errorf("Read4 hi = %#x", got)
	}
	if got := m.Read(0x1000, 2); got != 0x7788 {
		t.Errorf("Read2 = %#x", got)
	}
	if got := m.Read(0x1007, 1); got != 0x11 {
		t.Errorf("Read1 = %#x", got)
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	m := New()
	if got := m.Read(0xdeadbeef, 8); got != 0 {
		t.Errorf("unwritten read = %#x, want 0", got)
	}
}

func TestCrossPageAccess(t *testing.T) {
	m := New()
	addr := uint64(pageSize - 4)
	m.Write(addr, 8, 0xaabbccdd11223344)
	if got := m.Read(addr, 8); got != 0xaabbccdd11223344 {
		t.Errorf("cross-page read = %#x", got)
	}
}

func TestLoadStoreBytes(t *testing.T) {
	m := New()
	m.StoreBytes(0x2000, []byte{1, 2, 3, 4, 5})
	got := m.LoadBytes(0x2000, 5)
	for i, b := range []byte{1, 2, 3, 4, 5} {
		if got[i] != b {
			t.Errorf("byte %d = %d, want %d", i, got[i], b)
		}
	}
}

// TestStoreBytesSpansPages checks StoreBytes against byte-by-byte stores
// where the run crosses pages (two boundaries) and where it wraps past the
// top of the address space.
func TestStoreBytesSpansPages(t *testing.T) {
	b := make([]byte, 2*pageSize+100)
	for i := range b {
		b[i] = byte(i*7 + 1)
	}
	for _, addr := range []uint64{0x3fc0, ^uint64(0) - 50} {
		got, want := New(), New()
		got.StoreBytes(addr, b)
		for i, x := range b {
			want.StoreByte(addr+uint64(i), x)
		}
		if d := Diff(got, want, 1); len(d) != 0 {
			t.Errorf("StoreBytes(%#x): first mismatch %+v", addr, d[0])
		}
		if len(got.pages) != len(want.pages) {
			t.Errorf("StoreBytes(%#x) allocated %d pages, byte stores %d", addr, len(got.pages), len(want.pages))
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	m := New()
	f := func(addr uint64, v uint64, wsel uint8) bool {
		w := []int{1, 2, 4, 8}[wsel%4]
		m.Write(addr, w, v)
		mask := ^uint64(0)
		if w < 8 {
			mask = 1<<(8*w) - 1
		}
		return m.Read(addr, w) == v&mask
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSignExtend(t *testing.T) {
	cases := []struct {
		v    uint64
		w    int
		want int64
	}{
		{0x80, 1, -128},
		{0x7f, 1, 127},
		{0x8000, 2, -32768},
		{0xffff, 2, -1},
		{0x80000000, 4, -2147483648},
		{0x7fffffff, 4, 2147483647},
		{0xffffffffffffffff, 8, -1},
	}
	for _, c := range cases {
		if got := int64(SignExtend(c.v, c.w)); got != c.want {
			t.Errorf("SignExtend(%#x, %d) = %d, want %d", c.v, c.w, got, c.want)
		}
	}
}

func TestRegions(t *testing.T) {
	m := New()
	if err := m.AddRegion(Region{Name: "sandbox", Base: 0x1000, Size: 0x1000}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddRegion(Region{Name: "kernel", Base: 0x100000, Size: 0x1000, Protected: true}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddRegion(Region{Name: "overlap", Base: 0x1800, Size: 16}); err == nil {
		t.Error("expected overlap error")
	}
	if err := m.AddRegion(Region{Name: "empty", Base: 0, Size: 0}); err == nil {
		t.Error("expected zero-size error")
	}
	if err := m.AddRegion(Region{Name: "wrap", Base: ^uint64(0) - 1, Size: 16}); err == nil {
		t.Error("expected wrap error")
	}
	r, ok := m.RegionOf(0x1fff)
	if !ok || r.Name != "sandbox" {
		t.Errorf("RegionOf(0x1fff) = %+v, %v", r, ok)
	}
	if _, ok := m.RegionOf(0x2000); ok {
		t.Error("RegionOf(0x2000) should miss (exclusive end)")
	}
	k, ok := m.RegionByName("kernel")
	if !ok || !k.Protected {
		t.Errorf("kernel region: %+v, %v", k, ok)
	}
	if got := len(m.Regions()); got != 2 {
		t.Errorf("Regions() len = %d", got)
	}
}

func TestCloneCopyOnWrite(t *testing.T) {
	m := New()
	m.Write(0x100, 8, 111)
	c := m.Clone()

	// Clone sees original data.
	if got := c.Read(0x100, 8); got != 111 {
		t.Fatalf("clone read = %d", got)
	}
	// Writes to clone do not affect original.
	c.Write(0x100, 8, 222)
	if got := m.Read(0x100, 8); got != 111 {
		t.Errorf("original after clone write = %d, want 111", got)
	}
	// Writes to original do not affect clone.
	m.Write(0x100, 8, 333)
	if got := c.Read(0x100, 8); got != 222 {
		t.Errorf("clone after original write = %d, want 222", got)
	}
	// Fresh pages are independent too.
	c.Write(0x5000, 8, 1)
	if got := m.Read(0x5000, 8); got != 0 {
		t.Errorf("original sees clone's new page: %d", got)
	}
}

func TestCloneOracleOrdering(t *testing.T) {
	// The pipeline usage pattern: oracle (clone) writes a page first, then
	// the original writes the same page later; neither sees the other.
	m := New()
	m.Write(0x300, 8, 1)
	oracle := m.Clone()
	oracle.Write(0x300, 8, 2) // oracle runs ahead
	m.Write(0x300, 8, 2)      // timing model catches up
	if oracle.Read(0x300, 8) != 2 || m.Read(0x300, 8) != 2 {
		t.Error("divergence in oracle ordering pattern")
	}
	oracle.Write(0x308, 8, 9)
	if m.Read(0x308, 8) != 0 {
		t.Error("oracle write leaked to original")
	}
}

func TestInvalidWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for width 3")
		}
	}()
	New().Read(0, 3)
}

func TestZeroValueMemoryUsable(t *testing.T) {
	var m Memory
	m.Write(0x10, 4, 42)
	if got := m.Read(0x10, 4); got != 42 {
		t.Errorf("zero-value memory read = %d", got)
	}
}

func TestCloneIntoReuse(t *testing.T) {
	m := New()
	m.Write(0x100, 8, 7)
	m.Write(0x2000, 8, 9)

	c := &Memory{}
	m.CloneInto(c)
	if c.Read(0x100, 8) != 7 || c.Read(0x2000, 8) != 9 {
		t.Fatal("clone missing original contents")
	}

	// Diverge, then re-clone into the same image: divergence must vanish.
	c.Write(0x100, 8, 99)
	c.Write(0x9000, 8, 1) // page the original never had
	m.CloneInto(c)
	if got := c.Read(0x100, 8); got != 7 {
		t.Errorf("re-clone kept stale write: %d", got)
	}
	if got := c.Read(0x9000, 8); got != 0 {
		t.Errorf("re-clone kept stale page: %d", got)
	}

	// COW still holds after reuse.
	c.Write(0x100, 8, 123)
	if got := m.Read(0x100, 8); got != 7 {
		t.Errorf("reused clone write leaked to original: %d", got)
	}
}

func TestSnapshotRestore(t *testing.T) {
	m := New()
	if err := m.AddRegion(Region{Name: "r", Base: 0x1000, Size: 64}); err != nil {
		t.Fatal(err)
	}
	m.Write(0x1000, 8, 42)
	snap := m.Snapshot()

	m.Write(0x1000, 8, 77) // mutate a snapshotted page
	m.Write(0x40000, 8, 5) // grow a new page
	m.Restore(snap)

	if got := m.Read(0x1000, 8); got != 42 {
		t.Errorf("restore: read %d, want 42", got)
	}
	if got := m.Read(0x40000, 8); got != 0 {
		t.Errorf("restore kept post-snapshot page: %d", got)
	}
	if _, ok := m.RegionByName("r"); !ok {
		t.Error("restore dropped region")
	}

	// The cycle must be repeatable: mutate and restore again.
	m.Write(0x1000, 8, 1)
	m.Restore(snap)
	if got := m.Read(0x1000, 8); got != 42 {
		t.Errorf("second restore: read %d, want 42", got)
	}
	// And the snapshot itself must have stayed pristine throughout.
	if got := snap.Read(0x1000, 8); got != 42 {
		t.Errorf("snapshot mutated: %d", got)
	}
}

func TestResetEmpties(t *testing.T) {
	m := New()
	if err := m.AddRegion(Region{Name: "r", Base: 0x1000, Size: 64}); err != nil {
		t.Fatal(err)
	}
	m.Write(0x1000, 8, 42)
	m.Write(0x7ff8, 8, 7)
	m.Reset()
	if len(m.pages) != 0 || len(m.Regions()) != 0 {
		t.Fatalf("reset left %d pages, regions %v", len(m.pages), m.Regions())
	}
	// Recycled pages come back zeroed.
	for _, base := range []uint64{0x3000, 0x9000} {
		m.StoreByte(base, 1)
		for a := base + 1; a < base+pageSize; a++ {
			if m.LoadByte(a) != 0 {
				t.Fatalf("recycled page holds %#x at %#x", m.LoadByte(a), a)
			}
		}
	}
	if m.Read(0x1000, 8) != 0 || m.Read(0x7ff8, 8) != 0 {
		t.Error("reset memory still reads old data")
	}
}

// TestResetSparesSharedPages checks Reset against a copy-on-write clone
// (the pipeline's oracle): a page the clone still shares is neither
// zeroed nor handed out again, from either side's Reset, while pages m
// owns privately are recycled.
func TestResetSparesSharedPages(t *testing.T) {
	m := New()
	m.Write(0x1000, 8, 11) // shared with the clone below, never rewritten by m
	m.Write(0x5000, 8, 22) // shared, then copied when m writes it
	c := m.Clone()
	m.Write(0x5000, 8, 23)
	m.Write(0x9000, 8, 33) // private to m from the start

	m.Reset()
	for _, p := range m.free {
		for pn, cp := range c.pages {
			if p == cp {
				t.Fatalf("page %#x the clone reads was recycled", pn<<pageShift)
			}
		}
	}
	if len(m.free) != 2 {
		t.Errorf("recycled %d private pages, want 2", len(m.free))
	}
	// Rewrite through recycled and fresh pages; the clone is untouched.
	for a := uint64(0); a < 0x10000; a += 0x800 {
		m.Write(a, 8, ^uint64(0))
	}
	if c.Read(0x1000, 8) != 11 || c.Read(0x5000, 8) != 22 || c.Read(0x9000, 8) != 0 {
		t.Errorf("clone reads %d, %d, %d after the original's reset, want 11, 22, 0",
			c.Read(0x1000, 8), c.Read(0x5000, 8), c.Read(0x9000, 8))
	}

	// The clone's side: resetting it spares what it shares with m.
	m2 := New()
	m2.Write(0x2000, 8, 44)
	c2 := m2.Clone()
	c2.Reset()
	if len(c2.free) != 0 || m2.Read(0x2000, 8) != 44 {
		t.Errorf("clone reset recycled %d pages; original reads %d, want 44", len(c2.free), m2.Read(0x2000, 8))
	}
}
