package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

func smallCfg() Config {
	return Config{Name: "t", Sets: 4, Ways: 2, LineSize: 64, HitLatency: 2, Policy: LRU}
}

// TestLineSize pins the packed way layout: the two flags follow the two
// words, so a line is 24 bytes, not the 32 a flag-first order pads to.
func TestLineSize(t *testing.T) {
	if got := unsafe.Sizeof(line{}); got != 24 {
		t.Fatalf("sizeof(line) = %d, want 24", got)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Sets: 3, Ways: 1, LineSize: 64, HitLatency: 1},
		{Sets: 4, Ways: 0, LineSize: 64, HitLatency: 1},
		{Sets: 4, Ways: 1, LineSize: 48, HitLatency: 1},
		{Sets: 4, Ways: 1, LineSize: 64, HitLatency: 0},
		{Sets: 0, Ways: 1, LineSize: 64, HitLatency: 1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should fail: %+v", i, cfg)
		}
	}
	if _, err := New(smallCfg()); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestSetMapping(t *testing.T) {
	c := MustNew(smallCfg())
	if got := c.SetOf(0); got != 0 {
		t.Errorf("SetOf(0) = %d", got)
	}
	if got := c.SetOf(64); got != 1 {
		t.Errorf("SetOf(64) = %d", got)
	}
	if got := c.SetOf(64 * 4); got != 0 {
		t.Errorf("SetOf(256) = %d (wraps)", got)
	}
	if got := c.LineAddr(0x1234); got != 0x1200 {
		t.Errorf("LineAddr = %#x", got)
	}
}

func TestFillLookupEvict(t *testing.T) {
	c := MustNew(smallCfg())
	if c.Lookup(0x100) {
		t.Error("lookup on empty cache hit")
	}
	c.Fill(0x100, false)
	if !c.Lookup(0x100) {
		t.Error("miss after fill")
	}
	if !c.Contains(0x13f) {
		t.Error("Contains should match any address on the line")
	}
	if !c.Evict(0x100) {
		t.Error("evict reported absent")
	}
	if c.Contains(0x100) {
		t.Error("present after evict")
	}
}

func TestLRUReplacement(t *testing.T) {
	c := MustNew(smallCfg()) // 4 sets x 2 ways, 64B lines: set stride 256
	a, b, d := uint64(0), uint64(0x100), uint64(0x200)
	c.Fill(a, false)
	c.Fill(b, false)
	c.Lookup(a) // a is now MRU
	victim, evicted := c.Fill(d, false)
	if !evicted || victim != b {
		t.Errorf("victim = %#x (evicted=%v), want %#x", victim, evicted, b)
	}
	if !c.Contains(a) || !c.Contains(d) || c.Contains(b) {
		t.Error("wrong set contents after LRU eviction")
	}
}

func TestTreePLRUEvictsUntouched(t *testing.T) {
	cfg := smallCfg()
	cfg.Ways = 4
	cfg.Policy = TreePLRU
	c := MustNew(cfg)
	addrs := []uint64{0, 0x100, 0x200, 0x300} // all map to set 0
	for _, a := range addrs {
		c.Fill(a, false)
	}
	// Touch the left-subtree ways (0, 1); the PLRU bits now point at the
	// right subtree, where way 2 is the pseudo-LRU leaf (fill of way 3
	// pointed its subtree bit back at way 2).
	c.Lookup(addrs[0])
	c.Lookup(addrs[1])
	victim, evicted := c.Fill(0x400, false)
	if !evicted {
		t.Fatal("expected eviction")
	}
	if victim != addrs[2] {
		t.Errorf("PLRU victim = %#x, want %#x", victim, addrs[2])
	}
	// A subsequent touch of way 2 flips the victim to way 3's replacement
	// ... which is now 0x400; touching 0x400 sends the victim left.
	c.Lookup(0x400)
	victim, evicted = c.Fill(0x500, false)
	if !evicted {
		t.Fatal("expected second eviction")
	}
	if victim == 0x400 {
		t.Errorf("PLRU evicted the just-touched line")
	}
}

func TestRandomReplacementDeterministic(t *testing.T) {
	mk := func() *Cache {
		cfg := smallCfg()
		cfg.Policy = Random
		cfg.Seed = 99
		return MustNew(cfg)
	}
	c1, c2 := mk(), mk()
	seq := []uint64{0, 0x100, 0x200, 0x300, 0x400, 0x500}
	for _, a := range seq {
		c1.Fill(a, false)
		c2.Fill(a, false)
	}
	for _, a := range seq {
		if c1.Contains(a) != c2.Contains(a) {
			t.Errorf("same-seed caches diverge at %#x", a)
		}
	}
}

func TestStats(t *testing.T) {
	c := MustNew(smallCfg())
	c.Lookup(0x40) // miss
	c.Fill(0x40, false)
	c.Lookup(0x40) // hit
	c.Fill(0x40+0x100, false)
	c.Fill(0x40+0x200, false) // evicts
	if c.Stats().Hits != 1 || c.Stats().Misses != 1 || c.Stats().Evictions != 1 {
		t.Errorf("stats = %+v", c.Stats())
	}
}

func TestPrefetchedStats(t *testing.T) {
	c := MustNew(smallCfg())
	c.Fill(0x40, true)
	if c.Stats().PrefetchFills != 1 {
		t.Errorf("PrefetchFills = %d", c.Stats().PrefetchFills)
	}
	c.Lookup(0x40)
	if c.Stats().PrefetchHits != 1 {
		t.Errorf("PrefetchHits = %d", c.Stats().PrefetchHits)
	}
	c.Lookup(0x40)
	if c.Stats().PrefetchHits != 1 {
		t.Errorf("PrefetchHits counted twice: %d", c.Stats().PrefetchHits)
	}
}

func TestSetContents(t *testing.T) {
	c := MustNew(smallCfg())
	c.Fill(0x100, false)
	c.Fill(0x500, false) // same set (set 0 at stride 0x100... set= (0x100>>6)&3 = 0)
	got := c.SetContents(c.SetOf(0x100))
	if len(got) != 2 {
		t.Fatalf("SetContents = %#v", got)
	}
}

// TestContainsMatchesFillHistory property-checks presence tracking: after
// a random sequence of fills/evicts with no capacity pressure (one line
// per set max), Contains must mirror a reference map.
func TestContainsMatchesFillHistory(t *testing.T) {
	f := func(ops []uint16) bool {
		cfg := Config{Name: "p", Sets: 64, Ways: 8, LineSize: 64, HitLatency: 1, Policy: LRU}
		c := MustNew(cfg)
		ref := map[uint64]bool{}
		for i, op := range ops {
			// Constrain to 32 distinct lines in distinct sets: no evictions.
			line := uint64(op%32) * 64
			if i%3 == 0 {
				c.Evict(line)
				delete(ref, line)
			} else {
				c.Fill(line, false)
				ref[line] = true
			}
		}
		for l := uint64(0); l < 32; l++ {
			if c.Contains(l*64) != ref[l*64] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestFlushAll(t *testing.T) {
	c := MustNew(smallCfg())
	for i := uint64(0); i < 8; i++ {
		c.Fill(i*64, false)
	}
	c.FlushAll()
	for i := uint64(0); i < 8; i++ {
		if c.Contains(i * 64) {
			t.Errorf("line %#x survived FlushAll", i*64)
		}
	}
}

// Regression: Fill's refresh path must keep the prefetched mark honest.
// A demand refresh clears it (the line is demand-touched); a prefetch
// refresh of a demand-resident line must NOT set it — the refresh path
// counts no PrefetchFill, so a later Lookup would invent a PrefetchHit
// and PrefetchHits could exceed PrefetchFills.
func TestFillRefreshUpdatesPrefetchedMark(t *testing.T) {
	c := MustNew(smallCfg())
	c.Fill(0x40, true)
	c.Fill(0x40, false) // demand refresh clears the mark
	c.Lookup(0x40)
	if c.Stats().PrefetchHits != 0 {
		t.Errorf("demand-refreshed line counted as prefetch hit: %+v", c.Stats())
	}

	c = MustNew(smallCfg())
	c.Fill(0x80, false)
	c.Fill(0x80, true) // prefetch refresh of a demand-resident line
	c.Lookup(0x80)
	if got := c.Stats(); got.PrefetchHits != 0 {
		t.Errorf("prefetch refresh of a demand line invented a hit: %+v", got)
	}

	// A genuinely prefetch-filled line refreshed by another prefetch still
	// counts its (single) hit, and the books balance.
	c = MustNew(smallCfg())
	c.Fill(0xc0, true)
	c.Fill(0xc0, true)
	c.Lookup(0xc0)
	got := c.Stats()
	if got.PrefetchHits != 1 {
		t.Errorf("prefetch-filled line lost its hit: %+v", got)
	}
	if got.PrefetchHits > got.PrefetchFills {
		t.Errorf("PrefetchHits %d exceeds PrefetchFills %d", got.PrefetchHits, got.PrefetchFills)
	}
}

// Regression for the accounting invariant directly: no fill/refresh
// sequence may drive PrefetchHits above PrefetchFills.
func TestPrefetchHitsNeverExceedFills(t *testing.T) {
	c := MustNew(smallCfg())
	for i := 0; i < 4; i++ {
		c.Fill(0x40, false) // demand fill
		c.Fill(0x40, true)  // prefetch refresh (the old bug set the mark here)
		c.Lookup(0x40)
	}
	got := c.Stats()
	if got.PrefetchHits > got.PrefetchFills {
		t.Errorf("PrefetchHits %d exceeds PrefetchFills %d after refresh loop",
			got.PrefetchHits, got.PrefetchFills)
	}
	if got.PrefetchHits != 0 {
		t.Errorf("no prefetch ever filled this line, yet PrefetchHits = %d", got.PrefetchHits)
	}
}

// Regression: with a non-power-of-two way count the TreePLRU walk used
// complete-binary-heap bit indexing, which steps outside the bit array and
// can never select the last way as a victim.
func TestTreePLRUNonPowerOfTwoWays(t *testing.T) {
	cfg := smallCfg()
	cfg.Ways = 3
	cfg.Policy = TreePLRU
	c := MustNew(cfg)
	addrs := []uint64{0, 0x100, 0x200} // all in set 0
	for _, a := range addrs {
		c.Fill(a, false)
	}
	// Touch way 1 (right subtree: its bit points at way 2), then way 0
	// (root bit points right): the pseudo-LRU walk must land on way 2.
	c.Lookup(addrs[1])
	c.Lookup(addrs[0])
	victim, evicted := c.Fill(0x300, false)
	if !evicted || victim != addrs[2] {
		t.Errorf("victim = %#x (evicted=%v), want %#x", victim, evicted, addrs[2])
	}
	if err := c.CheckReplacementState(); err != nil {
		t.Errorf("CheckReplacementState: %v", err)
	}

	// The last way must be reachable as a victim under plain filling, for
	// every irregular tree shape.
	for ways := 2; ways <= 9; ways++ {
		cfg.Ways = ways
		c := MustNew(cfg)
		for w := 0; w < ways; w++ {
			c.Fill(uint64(w)*0x100, false)
		}
		last := uint64(ways-1) * 0x100
		gone := false
		for i := ways; i < ways+3*ways && !gone; i++ {
			if v, ev := c.Fill(uint64(i)*0x100, false); ev && v == last {
				gone = true
			}
			if err := c.CheckReplacementState(); err != nil {
				t.Fatalf("ways=%d: %v", ways, err)
			}
		}
		if !gone {
			t.Errorf("ways=%d: last way's line never evicted (unreachable victim)", ways)
		}
	}
}
