package cache

import (
	"math/rand"
	"reflect"
	"testing"

	"pandora/internal/obs"
)

// countProbe counts the events it receives.
type countProbe struct{ n int }

func (p *countProbe) Emit(obs.Event) { p.n++ }

// churn drives c through a seeded mix of fills, prefetch fills, lookups
// and evictions over more lines than it holds, and returns the victims
// its fills reported — under Random, the policy's draw sequence.
func churn(c *Cache, seed int64, n int) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	var victims []uint64
	for i := 0; i < n; i++ {
		addr := uint64(rng.Intn(64)) << 6
		switch rng.Intn(4) {
		case 0, 1:
			if v, ok := c.Fill(addr, rng.Intn(2) == 0); ok {
				victims = append(victims, v)
			}
		case 2:
			c.Lookup(addr)
		case 3:
			c.Evict(addr)
		}
	}
	return victims
}

// TestCacheResetEqualsNew checks that a used cache, once reset, is the
// cache New builds — lines, replacement bits, tick, stats, set marks,
// probe and the Random policy's generator state alike — for every
// policy, and that it then behaves identically, Random making the same
// draws.
func TestCacheResetEqualsNew(t *testing.T) {
	for _, tc := range []struct {
		policy Policy
		ways   int
	}{{LRU, 4}, {Random, 4}, {TreePLRU, 4}, {TreePLRU, 6}} {
		cfg := Config{Name: "t", Sets: 8, Ways: tc.ways, LineSize: 64, HitLatency: 2, Policy: tc.policy, Seed: 5}
		used, fresh := MustNew(cfg), MustNew(cfg)
		used.SetProbe(&countProbe{}, func() int64 { return 1 }, obs.TrackL1)
		churn(used, 1, 500)
		used.CorruptReplacementState(3)
		used.Reset()
		if !reflect.DeepEqual(used, fresh) {
			t.Errorf("%v ways=%d: reset cache differs from a new one", tc.policy, tc.ways)
			continue
		}
		if got, want := churn(used, 2, 500), churn(fresh, 2, 500); !reflect.DeepEqual(got, want) {
			t.Errorf("%v ways=%d: victims after reset %v, new cache %v", tc.policy, tc.ways, got, want)
		}
		if used.Stats() != fresh.Stats() {
			t.Errorf("%v ways=%d: stats after reset %+v, new cache %+v", tc.policy, tc.ways, used.Stats(), fresh.Stats())
		}
	}
}

// seedCounter is a math/rand source that counts its Seed calls.
type seedCounter struct {
	rand.Source
	seeds int
}

func (s *seedCounter) Seed(seed int64) {
	s.seeds++
	s.Source.Seed(seed)
}

// TestResetReseedsOnlyAfterDraws checks that Reset re-seeds the Random
// policy's generator only when it has drawn since it was last seeded, and
// that after draws a reset cache repeats a new cache's victims.
func TestResetReseedsOnlyAfterDraws(t *testing.T) {
	cfg := Config{Name: "t", Sets: 8, Ways: 4, LineSize: 64, HitLatency: 2, Policy: Random, Seed: 5}
	c := MustNew(cfg)
	src := &seedCounter{Source: rand.NewSource(cfg.Seed)}
	c.rng = rand.New(src)
	c.Reset()
	c.Fill(0, false) // a free way: no draw
	c.Reset()
	if src.seeds != 0 {
		t.Fatalf("Reset without draws seeded %d times, want 0", src.seeds)
	}
	want := churn(MustNew(cfg), 2, 500)
	if len(want) == 0 {
		t.Fatal("churn evicted nothing; the test draws no victims")
	}
	for round := 1; round <= 3; round++ {
		if got := churn(c, 2, 500); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: victims %v, new cache %v", round, got, want)
		}
		c.Reset()
		c.Reset()
		if src.seeds != round {
			t.Fatalf("round %d: %d seeds after resets, want %d (one per round with draws)", round, src.seeds, round)
		}
	}
}

// TestHierarchyResetEqualsNew checks that a reset hierarchy has an empty
// prefetch buffer, no listeners, no probe, no latched violation and zero
// counters, and then answers an access sequence exactly as a new one.
func TestHierarchyResetEqualsNew(t *testing.T) {
	cfg := DefaultHierConfig()
	cfg.L1 = Config{Name: "L1D", Sets: 4, Ways: 2, LineSize: 64, HitLatency: 2, Policy: Random, Seed: 7}
	cfg.L2 = Config{Name: "L2", Sets: 8, Ways: 4, LineSize: 64, HitLatency: 12, Policy: Random, Seed: 11}
	cfg.PrefetchBuffer, cfg.PrefetchBufferSize, cfg.SelfCheck = true, 4, true
	used, fresh := MustNewHierarchy(cfg), MustNewHierarchy(cfg)
	rec, probe := &recordingListener{}, &countProbe{}
	used.AddListener(rec)
	used.SetProbe(probe, func() int64 { return 1 })
	for i := uint64(0); i < 200; i++ {
		used.Access(i*0x40%0x1000, i, i%3 == 0)
		used.Prefetch(i * 0x80 % 0x2000)
	}
	used.CorruptL1Line(1)
	used.Access(0x40, 0, false) // the self-check latches the violation
	if used.InvariantError() == nil {
		t.Fatal("corrupted hierarchy latched no violation")
	}
	used.Reset()

	if len(used.pbuf) != 0 || len(used.listeners) != 0 || used.probe != nil || used.clock != nil {
		t.Fatalf("reset left pbuf %v, %d listeners, probe %v", used.pbuf, len(used.listeners), used.probe)
	}
	if used.InvariantError() != nil || used.DemandAccesses() != 0 || used.PrefetchRequests() != 0 {
		t.Fatalf("reset left violation %v, counters %d/%d", used.InvariantError(), used.DemandAccesses(), used.PrefetchRequests())
	}
	if !reflect.DeepEqual(used.L1, fresh.L1) || !reflect.DeepEqual(used.L2, fresh.L2) {
		t.Fatal("reset levels differ from new ones")
	}
	seen, events := len(rec.addrs), probe.n
	for i := uint64(0); i < 300; i++ {
		addr := i * 0xc0 % 0x3000
		if got, want := used.Access(addr, 0, false), fresh.Access(addr, 0, false); got != want {
			t.Fatalf("access %d of %#x: reset %+v, new %+v", i, addr, got, want)
		}
		used.Prefetch(addr + 0x1000)
		fresh.Prefetch(addr + 0x1000)
	}
	if !reflect.DeepEqual(used.pbuf, fresh.pbuf) || used.L1.Stats() != fresh.L1.Stats() || used.L2.Stats() != fresh.L2.Stats() {
		t.Errorf("after the same accesses: pbuf %v vs %v, L1 %+v vs %+v", used.pbuf, fresh.pbuf, used.L1.Stats(), fresh.L1.Stats())
	}
	if len(rec.addrs) != seen || probe.n != events {
		t.Error("a listener or probe attached before Reset still observes")
	}
}
