package dmp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pandora/internal/cache"
	"pandora/internal/mem"
)

// impPair drives the ring IMP and the pointer-slice reference side by
// side on one memory (the prefetcher only reads it), each prefetching
// into its own hierarchy, and compares them after every access.
type impPair struct {
	t          *testing.T
	mem        *mem.Memory
	got        *IMP
	want       *refIMP
	gotH       *cache.Hierarchy
	wantH      *cache.Hierarchy
	gotTrace   []string
	wantTrace  []string
	nAccess    int
	lastAccess func() string // describes the last operation, for failures
}

func newIMPPair(t *testing.T, cfg Config, m *mem.Memory) *impPair {
	q := &impPair{
		t:     t,
		mem:   m,
		gotH:  cache.MustNewHierarchy(cache.DefaultHierConfig()),
		wantH: cache.MustNewHierarchy(cache.DefaultHierConfig()),
	}
	q.got = New(cfg, q.gotH, m)
	q.want = newRefIMP(cfg, q.wantH, m)
	q.got.TraceFn = func(f string, a ...any) { q.gotTrace = append(q.gotTrace, fmt.Sprintf(f, a...)) }
	q.want.TraceFn = func(f string, a ...any) { q.wantTrace = append(q.wantTrace, fmt.Sprintf(f, a...)) }
	return q
}

// access feeds one demand access (data is the width-byte value at addr)
// to both prefetchers and fails on the first difference.
func (q *impPair) access(addr uint64, width int, isWrite bool) {
	q.t.Helper()
	data := q.mem.Read(addr, width)
	q.got.OnAccess(addr, data, isWrite)
	q.want.OnAccess(addr, data, isWrite)
	q.nAccess++
	n := q.nAccess
	q.lastAccess = func() string { return fmt.Sprintf("access %d: addr=%#x data=%#x write=%v", n, addr, data, isWrite) }
	q.compare()
}

func (q *impPair) reset() {
	q.t.Helper()
	q.got.Reset()
	q.want.Reset()
	n := q.nAccess
	q.lastAccess = func() string { return fmt.Sprintf("Reset after access %d", n) }
	q.compare()
}

func (q *impPair) compare() {
	q.t.Helper()
	if q.got.Stats != q.want.Stats {
		q.t.Fatalf("%s: Stats %+v, reference %+v", q.lastAccess(), q.got.Stats, q.want.Stats)
	}
	// Earlier lines were compared before; only this access's are new.
	if !slices.Equal(q.gotTrace, q.wantTrace) {
		q.t.Fatalf("%s: trace\n%q\nreference\n%q", q.lastAccess(), q.gotTrace, q.wantTrace)
	}
	q.gotTrace, q.wantTrace = q.gotTrace[:0], q.wantTrace[:0]
	for k := 0; k < int(q.got.cfg.Levels)-1; k++ {
		gb, gs, gok := q.got.LevelMapping(k)
		wb, ws, wok := q.want.LevelMapping(k)
		if gb != wb || gs != ws || gok != wok {
			q.t.Fatalf("%s: level %d mapping (%#x, %d, %v), reference (%#x, %d, %v)",
				q.lastAccess(), k, gb, gs, gok, wb, ws, wok)
		}
	}
	if q.gotH.PrefetchRequests() != q.wantH.PrefetchRequests() ||
		q.gotH.L2.Stats() != q.wantH.L2.Stats() {
		q.t.Fatalf("%s: hierarchy prefetches %d %+v, reference %d %+v", q.lastAccess(),
			q.gotH.PrefetchRequests(), q.gotH.L2.Stats(), q.wantH.PrefetchRequests(), q.wantH.L2.Stats())
	}
	if err := q.got.checkTable(); err != nil {
		q.t.Fatalf("%s: %v", q.lastAccess(), err)
	}
}

// checkTable recounts the neighbourhood filter from the live entries and
// requires the active slot to be one of them.
func (p *IMP) checkTable() error {
	var near [1 << nearBits]uint8
	activeLive := p.active == noStream
	for k := 0; k < p.n; k++ {
		i := p.slot(k)
		near[nearSlot(p.ring[i].lastAddr)]++
		activeLive = activeLive || i == p.active
	}
	if near != p.near {
		return fmt.Errorf("neighbourhood filter out of step with the %d live entries", p.n)
	}
	if !activeLive {
		return fmt.Errorf("active slot %d is not a live entry", p.active)
	}
	return nil
}

// Fixed regions of the equivalence workload. The chase arrays come from
// setupChase; ppBase is a Prime+Probe buffer.
const ppBase = uint64(0x200000)

// driveIMPPair decodes ops from b and runs them on q: constant-stride
// runs, set-strided Prime+Probe sweeps, X[Y[Z[i]]] chases, interleaved
// streams, accesses at the ends of the address space, writes and resets.
func driveIMPPair(q *impPair, b []byte) {
	pos := 0
	next := func() byte {
		if pos >= len(b) {
			return 0
		}
		pos++
		return b[pos-1]
	}
	addrOf := func() uint64 {
		switch next() % 6 {
		case 0:
			return zBase + uint64(next())*4
		case 1:
			return yBase + uint64(next())*4
		case 2:
			return ppBase + uint64(next())<<6
		case 3:
			return uint64(next()) // near 0
		case 4:
			return ^uint64(next()) // near 2^64
		default:
			return uint64(next())<<24 | uint64(next())<<16 | uint64(next())<<8 | uint64(next())
		}
	}
	for pos < len(b) {
		switch next() % 8 {
		case 0: // constant-stride run, any stride in [-128, 127]
			base, stride, n := addrOf(), int64(int8(next())), int(next()%32)+1
			for i := 0; i < n; i++ {
				q.access(base+uint64(int64(i)*stride), 4, false)
			}
		case 1: // Prime+Probe sweep over sets × ways
			base := ppBase + uint64(next()%64)<<6
			setStride := uint64(4096) << (next() % 4)
			sets, ways := int(next()%8)+1, int(next()%16)+1
			for s := 0; s < sets; s++ {
				for w := 0; w < ways; w++ {
					q.access(base+uint64(s)<<6+uint64(w)*setStride, 8, false)
				}
			}
		case 2: // victim loop X[Y[Z[i]]]
			start, n := int(next()%8), int(next()%32)+1
			for i := start; i < start+n; i++ {
				zAddr := zBase + uint64(i*elemW)
				q.access(zAddr, elemW, false)
				yAddr := yBase + q.mem.Read(zAddr, elemW)*elemW
				q.access(yAddr, elemW, false)
				q.access(xBase+q.mem.Read(yAddr, elemW)*elemW, elemW, false)
			}
		case 3: // two interleaved streams
			a, b := addrOf(), addrOf()
			sa, sb, n := int64(int8(next())%65), int64(int8(next())%65), int(next()%16)+1
			for i := 0; i < n; i++ {
				q.access(a+uint64(int64(i)*sa), 8, false)
				q.access(b+uint64(int64(i)*sb), 1, false)
			}
		case 4:
			q.access(addrOf(), 8, true)
		case 5:
			if next()%4 == 0 {
				q.reset()
			}
		default:
			q.access(addrOf(), 4, false)
		}
	}
}

// impEquivConfig picks the prefetcher configuration from the first byte.
func impEquivConfig(c byte) Config {
	cfg := DefaultConfig(Levels(2 + c%3))
	if c&8 != 0 {
		cfg.MaxShift = 6 // the URG experiments' setting
		cfg.ConfirmThreshold = 3
	}
	return cfg
}

// FuzzIMPEquivalence runs the ring IMP beside the pointer-slice reference
// it replaced over decoded access mixes and requires identical Stats,
// trace lines, level mappings and prefetches after every access.
func FuzzIMPEquivalence(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		b := make([]byte, 300)
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		q := newIMPPair(t, impEquivConfig(b[0]), setupChase(64))
		driveIMPPair(q, b[1:])
	})
}

// TestIMPEquivalenceLongRuns drives long mixed workloads, well past the
// table's capacity, through the same comparison.
func TestIMPEquivalenceLongRuns(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := 0; seed < seeds; seed++ {
		b := make([]byte, 4000)
		rand.New(rand.NewSource(int64(seed))).Read(b)
		q := newIMPPair(t, impEquivConfig(b[0]), setupChase(64))
		driveIMPPair(q, b[1:])
		if q.nAccess < 5000 {
			t.Fatalf("seed %d: only %d accesses", seed, q.nAccess)
		}
	}
}

// TestIMPFullTableAllocFree pins the per-access cost of Prime+Probe
// traffic: with the stream table full, new heads (each evicting the
// oldest) and stream advances allocate nothing, and neither does Reset.
func TestIMPFullTableAllocFree(t *testing.T) {
	p, h, m := newIMP(t, ThreeLevel)
	chase(h, m, 16)
	if d := p.ConfirmedDepth(); d != 2 {
		t.Fatalf("warm-up locked %d levels, want 2", d)
	}
	addr := ppBase
	for i := 0; i < 2*tableSize; i++ {
		p.OnAccess(addr, 0, false)
		addr += 4096
	}
	if p.n != tableSize {
		t.Fatalf("table holds %d heads, want %d", p.n, tableSize)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		p.OnAccess(addr, 0, false)
		addr += 4096
	}); avg != 0 {
		t.Errorf("new head on a full table allocates %.2f times, want 0", avg)
	}
	i := 16
	if avg := testing.AllocsPerRun(1000, func() {
		zAddr := zBase + uint64(i*elemW)
		p.OnAccess(zAddr, m.Read(zAddr, elemW), false)
		i++
	}); avg != 0 {
		t.Errorf("stream advance on a full table allocates %.2f times, want 0", avg)
	}
	if got := p.Stats.Prefetches; got < 1000 {
		t.Errorf("%d prefetch chains, want one per stream advance", got)
	}
	if avg := testing.AllocsPerRun(10, p.Reset); avg != 0 {
		t.Errorf("Reset allocates %.2f times, want 0", avg)
	}
}
