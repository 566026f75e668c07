package channel

import (
	"slices"
	"testing"

	"pandora/internal/cache"
)

// probeBase is far from victim addresses used in tests.
const probeBase = uint64(0x10000000)

func newPP(t *testing.T, level Level) (*PrimeProbe, *cache.Hierarchy) {
	t.Helper()
	h := cache.MustNewHierarchy(cache.DefaultHierConfig())
	pp, err := NewPrimeProbe(h, level, probeBase)
	if err != nil {
		t.Fatal(err)
	}
	return pp, h
}

func TestPrimeProbeQuiescent(t *testing.T) {
	pp, _ := newPP(t, L2)
	pp.PrimeAll()
	counts := pp.ProbeAll()
	for s, c := range counts {
		if c != 0 {
			t.Fatalf("set %d reports %d evictions with no transmitter", s, c)
		}
	}
}

func TestPrimeProbeDetectsSingleAccess(t *testing.T) {
	pp, h := newPP(t, L2)
	pp.PrimeAll()

	victim := uint64(0x123440) // arbitrary line
	h.Access(victim, 0, false)

	counts := pp.ProbeAll()
	hot := HotSets(counts)
	if len(hot) != 1 {
		t.Fatalf("hot sets = %v, want exactly one", hot)
	}
	if hot[0] != pp.SetOf(victim) {
		t.Errorf("hot set %d, want %d", hot[0], pp.SetOf(victim))
	}
}

func TestPrimeProbeDetectsPrefetchFill(t *testing.T) {
	// The DMP attack's receiver sees prefetch fills exactly like demand
	// fills.
	pp, h := newPP(t, L2)
	pp.PrimeAll()
	h.Prefetch(0x55540)
	hot := HotSets(pp.ProbeAll())
	if len(hot) != 1 || hot[0] != pp.SetOf(0x55540) {
		t.Fatalf("hot = %v, want [%d]", hot, pp.SetOf(0x55540))
	}
}

func TestPrimeProbeL1(t *testing.T) {
	pp, h := newPP(t, L1)
	pp.PrimeAll()
	h.Access(0x77780, 0, false)
	hot := HotSets(pp.ProbeAll())
	found := false
	for _, s := range hot {
		if s == pp.SetOf(0x77780) {
			found = true
		}
	}
	if !found {
		t.Errorf("victim set %d not hot: %v", pp.SetOf(0x77780), hot)
	}
}

// TestPrimeProbeSeesThroughPrefetchBuffer verifies Section V-B3: with a
// prefetch buffer shielding L1, the L2 receiver still sees the fill.
func TestPrimeProbeSeesThroughPrefetchBuffer(t *testing.T) {
	cfg := cache.DefaultHierConfig()
	cfg.PrefetchBuffer = true
	h := cache.MustNewHierarchy(cfg)
	pp, err := NewPrimeProbe(h, L2, probeBase)
	if err != nil {
		t.Fatal(err)
	}
	pp.PrimeAll()
	h.Prefetch(0x66640)
	hot := HotSets(pp.ProbeAll())
	if len(hot) != 1 || hot[0] != pp.SetOf(0x66640) {
		t.Fatalf("L2 receiver must see buffered prefetch: hot=%v want [%d]", hot, pp.SetOf(0x66640))
	}
}

func TestNewPrimeProbeValidation(t *testing.T) {
	h := cache.MustNewHierarchy(cache.DefaultHierConfig())
	if _, err := NewPrimeProbe(nil, L2, 0); err == nil {
		t.Error("nil hierarchy accepted")
	}
	if _, err := NewPrimeProbe(h, L2, 0x33); err == nil {
		t.Error("unaligned base accepted")
	}
	if _, err := NewPrimeProbe(h, Level(9), 0); err == nil {
		t.Error("bad level accepted")
	}
}

func TestSetOfMatchesCache(t *testing.T) {
	pp, h := newPP(t, L2)
	for _, addr := range []uint64{0, 64, 0x1234, 0xffff7, 1 << 30} {
		if got, want := pp.SetOf(addr), h.L2.SetOf(addr); got != want {
			t.Errorf("SetOf(%#x) = %d, cache says %d", addr, got, want)
		}
	}
}

// TestPrimeProbeUnderTreePLRU: the receiver works on pseudo-LRU caches
// too (the replacement policy changes the MLD's extra state, not the
// set-index channel).
func TestPrimeProbeUnderTreePLRU(t *testing.T) {
	cfg := cache.DefaultHierConfig()
	cfg.L2.Policy = cache.TreePLRU
	h := cache.MustNewHierarchy(cfg)
	pp, err := NewPrimeProbe(h, L2, probeBase)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 4; trial++ {
		pp.PrimeAll()
		victim := uint64(0x123440 + trial*0x5000)
		h.Access(victim, 0, false)
		hot := HotSets(pp.ProbeAll())
		found := false
		for _, s := range hot {
			if s == pp.SetOf(victim) {
				found = true
			}
		}
		if !found {
			t.Errorf("trial %d: victim set %d not detected under tree-PLRU (hot=%v)",
				trial, pp.SetOf(victim), hot)
		}
	}
}

// addrLog records the address of every demand access.
type addrLog struct{ addrs []uint64 }

func (l *addrLog) OnAccess(addr, _ uint64, _ bool) { l.addrs = append(l.addrs, addr) }

// TestPrimeProbeAccessOrder pins the receiver's access sequence: PrimeAll
// and ProbeAll visit set (i*97+13) mod sets for i = 0, 1, ..., and within
// a set way (i*7+3) mod ways, at base + set*lineSize + way*sets*lineSize.
func TestPrimeProbeAccessOrder(t *testing.T) {
	geometries := []cache.HierConfig{cache.DefaultHierConfig(), cache.DefaultHierConfig()}
	geometries[1].L2.Sets, geometries[1].L2.Ways = 16, 6
	for _, hc := range geometries {
		for _, level := range []Level{L1, L2} {
			h := cache.MustNewHierarchy(hc)
			log := &addrLog{}
			h.AddListener(log)
			pp, err := NewPrimeProbe(h, level, probeBase)
			if err != nil {
				t.Fatal(err)
			}
			cfg := hc.L1
			if level == L2 {
				cfg = hc.L2
			}
			var want []uint64
			for i := 0; i < cfg.Sets; i++ {
				set := (i*97 + 13) % cfg.Sets
				for j := 0; j < cfg.Ways; j++ {
					way := (j*7 + 3) % cfg.Ways
					want = append(want, probeBase+uint64(set*cfg.LineSize)+uint64(way*cfg.Sets*cfg.LineSize))
				}
			}
			pp.PrimeAll()
			pp.ProbeAll()
			if !slices.Equal(log.addrs, append(want, want...)) {
				t.Errorf("%v with %d sets x %d ways: access order differs", level, cfg.Sets, cfg.Ways)
			}
		}
	}
}
