package cache

import "testing"

func testHier(t *testing.T, pbuf bool) *Hierarchy {
	t.Helper()
	cfg := DefaultHierConfig()
	cfg.PrefetchBuffer = pbuf
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHierarchyLatencies(t *testing.T) {
	h := testHier(t, false)
	cfg := h.Config()

	r := h.Access(0x1000, 0, false)
	if r.Latency != cfg.MemLatency || r.L1Hit || r.L2Hit {
		t.Errorf("cold access: %+v", r)
	}
	r = h.Access(0x1000, 0, false)
	if !r.L1Hit || r.Latency != cfg.L1.HitLatency {
		t.Errorf("L1 hit: %+v", r)
	}
	// Evict from L1 only: next access is an L2 hit.
	h.L1.Evict(0x1000)
	r = h.Access(0x1000, 0, false)
	if !r.L2Hit || r.Latency != cfg.L2.HitLatency {
		t.Errorf("L2 hit: %+v", r)
	}
}

func TestHierarchyConfigValidation(t *testing.T) {
	cfg := DefaultHierConfig()
	cfg.MemLatency = 0
	if _, err := NewHierarchy(cfg); err == nil {
		t.Error("MemLatency=0 accepted")
	}
	cfg = DefaultHierConfig()
	cfg.L2.LineSize = 128
	if _, err := NewHierarchy(cfg); err == nil {
		t.Error("mismatched line sizes accepted")
	}
}

func TestPrefetchFillsBothLevels(t *testing.T) {
	h := testHier(t, false)
	h.Prefetch(0x2000)
	if !h.L1.Contains(0x2000) || !h.L2.Contains(0x2000) {
		t.Error("prefetch did not fill both levels")
	}
	if h.PrefetchRequests() != 1 {
		t.Errorf("PrefetchRequests = %d", h.PrefetchRequests())
	}
}

// TestPrefetchBufferBypassesL1 verifies the Section V-B3 behaviour the
// paper flags: a prefetch buffer keeps prefetches out of L1 but they still
// fill L2, so an attacker monitoring L2 keeps the channel.
func TestPrefetchBufferBypassesL1(t *testing.T) {
	h := testHier(t, true)
	h.Prefetch(0x2000)
	if h.L1.Contains(0x2000) {
		t.Error("prefetch with buffer must not fill L1")
	}
	if !h.L2.Contains(0x2000) {
		t.Error("prefetch with buffer must still fill L2 — the paper's point")
	}
	// Demand access is satisfied by the buffer and promotes into L1.
	r := h.Access(0x2000, 0, false)
	if !r.BufferHit {
		t.Errorf("expected buffer hit: %+v", r)
	}
	if !h.L1.Contains(0x2000) {
		t.Error("buffer hit should promote into L1")
	}
}

func TestPrefetchBufferFIFOEviction(t *testing.T) {
	cfg := DefaultHierConfig()
	cfg.PrefetchBuffer = true
	cfg.PrefetchBufferSize = 2
	h := MustNewHierarchy(cfg)
	h.Prefetch(0x1000)
	h.Prefetch(0x2000)
	h.Prefetch(0x3000) // evicts 0x1000 from the buffer
	if r := h.Access(0x1000, 0, false); r.BufferHit {
		t.Error("0x1000 should have been evicted from the buffer")
	}
	if r := h.Access(0x3000, 0, false); !r.BufferHit {
		t.Error("0x3000 should be buffered")
	}
}

func TestInclusiveFill(t *testing.T) {
	h := testHier(t, false)
	h.Access(0x40, 0, false)
	if !h.L1.Contains(0x40) || !h.L2.Contains(0x40) {
		t.Error("demand miss must fill both levels")
	}
}

func TestLatencyProbeDoesNotPerturb(t *testing.T) {
	h := testHier(t, false)
	h.Access(0x40, 0, false)
	before := h.L1.Stats()
	if got := h.Latency(0x40); got != h.Config().L1.HitLatency {
		t.Errorf("Latency = %d", got)
	}
	if got := h.Latency(0x123456); got != h.Config().MemLatency {
		t.Errorf("Latency cold = %d", got)
	}
	if h.L1.Stats() != before {
		t.Error("Latency probe changed stats")
	}
}

type recordingListener struct {
	addrs  []uint64
	writes int
}

func (r *recordingListener) OnAccess(addr uint64, data uint64, isWrite bool) {
	r.addrs = append(r.addrs, addr)
	if isWrite {
		r.writes++
	}
}

func TestListeners(t *testing.T) {
	h := testHier(t, false)
	rec := &recordingListener{}
	h.AddListener(rec)
	h.Access(0x10, 1, false)
	h.Access(0x20, 2, true)
	h.AccessSilent(0x30) // silent: no notification
	if len(rec.addrs) != 2 || rec.writes != 1 {
		t.Errorf("listener saw %v (writes=%d)", rec.addrs, rec.writes)
	}
}

func TestEvictAll(t *testing.T) {
	h := testHier(t, true)
	h.Access(0x40, 0, false)
	h.Prefetch(0x7000)
	h.EvictAll(0x40)
	h.EvictAll(0x7000)
	if h.L1.Contains(0x40) || h.L2.Contains(0x40) || h.L2.Contains(0x7000) {
		t.Error("EvictAll left lines behind")
	}
	if r := h.Access(0x7000, 0, false); r.BufferHit {
		t.Error("EvictAll left the prefetch buffer entry")
	}
}

func TestFlushAllHierarchy(t *testing.T) {
	h := testHier(t, true)
	h.Access(0x40, 0, false)
	h.Prefetch(0x80)
	h.FlushAll()
	if h.L1.Contains(0x40) || h.L2.Contains(0x40) || h.L2.Contains(0x80) {
		t.Error("FlushAll left lines")
	}
}

func TestCheckInclusiveDetectsViolation(t *testing.T) {
	h := MustNewHierarchy(DefaultHierConfig())
	h.Access(0x1000, 0, false)
	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("clean hierarchy: %v", err)
	}
	// Break inclusivity by hand: drop the line from L2 only.
	h.L2.Evict(0x1000)
	if err := h.CheckInclusive(); err == nil {
		t.Error("L1-only line not flagged as an inclusivity violation")
	}
}

// Back-invalidation must preserve L2 ⊇ L1 under sustained eviction
// pressure, including through prefetches and an L2 policy different from
// L1's. SelfCheck validates after every operation; the test also probes
// directly at the end.
func TestBackInvalidationKeepsInclusivity(t *testing.T) {
	cfg := HierConfig{
		L1:         Config{Name: "L1", Sets: 2, Ways: 2, LineSize: 64, HitLatency: 1, Policy: LRU},
		L2:         Config{Name: "L2", Sets: 4, Ways: 3, LineSize: 64, HitLatency: 4, Policy: TreePLRU},
		MemLatency: 10,
		SelfCheck:  true,
	}
	h := MustNewHierarchy(cfg)
	x := uint64(12345)
	for i := 0; i < 800; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		a := (x >> 33) % (1 << 14)
		switch i % 5 {
		case 0:
			h.Prefetch(a)
		case 1:
			h.EvictAll(a)
		default:
			h.Access(a, uint64(i), i%2 == 0)
		}
		if err := h.InvariantError(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("final state: %v", err)
	}
}

// TestNewHierarchyAllocs pins the set-up cost of the default hierarchy,
// which every fresh machine pays: each level's lines come from one slab
// (with one more for TreePLRU's tree bits), not one slice per set — the
// per-set layout cost about 290 objects.
func TestNewHierarchyAllocs(t *testing.T) {
	cfg := DefaultHierConfig()
	avg := testing.AllocsPerRun(20, func() {
		if _, err := NewHierarchy(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 10 {
		t.Fatalf("NewHierarchy(DefaultHierConfig()) allocates %v objects, want 10", avg)
	}
}
