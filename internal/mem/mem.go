// Package mem implements the flat physical data memory backing the
// simulated machine. Memory is sparse (page-granular allocation) so
// experiments can place a "sandbox" region at low addresses and "protected
// kernel" data far away without allocating the gap.
//
// Addresses are 64-bit byte addresses; accesses are little-endian and may
// be 1, 2, 4 or 8 bytes wide. Memory is purely architectural state — all
// timing lives in the cache and pipeline models.
package mem

import "fmt"

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// Memory is a sparse byte-addressable physical memory.
//
// The zero value is an empty memory ready for use.
type Memory struct {
	pages map[uint64]*[pageSize]byte

	// shared marks pages referenced by a copy-on-write Clone; writing a
	// shared page copies it first.
	shared map[uint64]bool

	// regions records named address ranges for bookkeeping (sandbox,
	// protected space, victim stack, ...). Regions do not affect access
	// semantics; the mini-eBPF verifier enforces bounds in software, and
	// hardware (the prefetcher) deliberately ignores them — that is the
	// attack.
	regions []Region

	// free holds zeroed pages Reset recycled; page draws from it before
	// allocating.
	free []*[pageSize]byte
}

// Region is a named address range [Base, Base+Size).
type Region struct {
	Name      string
	Base      uint64
	Size      uint64
	Protected bool // true for addresses the sandboxed attacker must never architecturally read
}

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr uint64) bool {
	return addr >= r.Base && addr-r.Base < r.Size
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{pages: make(map[uint64]*[pageSize]byte)}
}

// AddRegion registers a named range. It returns an error if the region
// overlaps an existing one, so experiment setups fail loudly when
// mis-sized.
func (m *Memory) AddRegion(r Region) error {
	if r.Size == 0 {
		return fmt.Errorf("mem: region %q has zero size", r.Name)
	}
	if r.Base+r.Size < r.Base {
		return fmt.Errorf("mem: region %q wraps the address space", r.Name)
	}
	for _, ex := range m.regions {
		if r.Base < ex.Base+ex.Size && ex.Base < r.Base+r.Size {
			return fmt.Errorf("mem: region %q overlaps %q", r.Name, ex.Name)
		}
	}
	m.regions = append(m.regions, r)
	return nil
}

// RegionByName returns the named region.
func (m *Memory) RegionByName(name string) (Region, bool) {
	for _, r := range m.regions {
		if r.Name == name {
			return r, true
		}
	}
	return Region{}, false
}

// RegionOf returns the region containing addr, if any.
func (m *Memory) RegionOf(addr uint64) (Region, bool) {
	for _, r := range m.regions {
		if r.Contains(addr) {
			return r, true
		}
	}
	return Region{}, false
}

// Regions returns a copy of the registered regions.
func (m *Memory) Regions() []Region {
	out := make([]Region, len(m.regions))
	copy(out, m.regions)
	return out
}

func (m *Memory) page(addr uint64, create bool) *[pageSize]byte {
	if m.pages == nil {
		m.pages = make(map[uint64]*[pageSize]byte)
	}
	pn := addr >> pageShift
	p := m.pages[pn]
	if p == nil && create {
		p = m.newPage()
		m.pages[pn] = p
	}
	if p != nil && create && m.shared[pn] {
		cp := m.newPage()
		*cp = *p
		p = cp
		m.pages[pn] = p
		delete(m.shared, pn)
	}
	return p
}

// newPage returns a zeroed page, recycled when Reset left one.
func (m *Memory) newPage() *[pageSize]byte {
	if n := len(m.free); n > 0 {
		p := m.free[n-1]
		m.free[n-1] = nil
		m.free = m.free[:n-1]
		return p
	}
	return new([pageSize]byte)
}

// Reset empties m: no pages, no regions — the state New returns — while
// keeping its storage for reuse. Pages m owns privately are zeroed and
// recycled; a page it still shares copy-on-write with a Clone is only
// dropped from m, never zeroed or reused, since the clone reads it.
func (m *Memory) Reset() {
	for pn, p := range m.pages {
		if !m.shared[pn] {
			clear(p[:])
			m.free = append(m.free, p)
		}
	}
	clear(m.pages)
	clear(m.shared)
	m.regions = m.regions[:0]
}

// LoadByte returns the byte at addr (0 if never written).
func (m *Memory) LoadByte(addr uint64) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// StoreByte stores b at addr.
func (m *Memory) StoreByte(addr uint64, b byte) {
	m.page(addr, true)[addr&pageMask] = b
}

// Read returns the little-endian value of the width-byte word at addr.
// Width must be 1, 2, 4 or 8. Unaligned accesses are permitted (the toy
// machine has no alignment traps).
func (m *Memory) Read(addr uint64, width int) uint64 {
	checkWidth(width)
	// Fast path: the access lies within one page — a single map lookup
	// instead of one per byte.
	if off := addr & pageMask; off+uint64(width) <= pageSize {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		var v uint64
		for i := 0; i < width; i++ {
			v |= uint64(p[off+uint64(i)]) << (8 * i)
		}
		return v
	}
	var v uint64
	for i := 0; i < width; i++ {
		v |= uint64(m.LoadByte(addr+uint64(i))) << (8 * i)
	}
	return v
}

// Write stores the low width bytes of v at addr, little-endian.
func (m *Memory) Write(addr uint64, width int, v uint64) {
	checkWidth(width)
	if off := addr & pageMask; off+uint64(width) <= pageSize {
		p := m.page(addr, true)
		for i := 0; i < width; i++ {
			p[off+uint64(i)] = byte(v >> (8 * i))
		}
		return
	}
	for i := 0; i < width; i++ {
		m.StoreByte(addr+uint64(i), byte(v>>(8*i)))
	}
}

// LoadBytes copies n bytes starting at addr into a new slice.
func (m *Memory) LoadBytes(addr uint64, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = m.LoadByte(addr + uint64(i))
	}
	return out
}

// StoreBytes stores b starting at addr, one page lookup per page it
// spans.
func (m *Memory) StoreBytes(addr uint64, b []byte) {
	for len(b) > 0 {
		off := addr & pageMask
		n := copy(m.page(addr, true)[off:], b)
		b = b[n:]
		addr += uint64(n)
	}
}

func checkWidth(w int) {
	switch w {
	case 1, 2, 4, 8:
	default:
		panic(fmt.Sprintf("mem: invalid access width %d", w))
	}
}

// SignExtend sign-extends the low width bytes of v to 64 bits.
func SignExtend(v uint64, width int) uint64 {
	checkWidth(width)
	shift := 64 - 8*width
	return uint64(int64(v<<shift) >> shift)
}
