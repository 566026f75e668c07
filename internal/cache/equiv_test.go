package cache

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"pandora/internal/obs"
)

// The tests in this file drive the cache and hierarchy beside refCache and
// refHierarchy, the [][]line implementation they replaced (ref_test.go),
// and require identical observable behaviour after every operation.

// eventLog records every event it receives.
type eventLog struct{ events []obs.Event }

func (l *eventLog) Emit(e obs.Event) { l.events = append(l.events, e) }

// accessLog records every access a listener sees.
type accessLog struct{ calls []access }

type access struct {
	addr, data uint64
	isWrite    bool
}

func (l *accessLog) OnAccess(addr, data uint64, isWrite bool) {
	l.calls = append(l.calls, access{addr, data, isWrite})
}

// equivPair is a hierarchy and its reference, each with its own probe and
// listener, stamped by one shared clock.
type equivPair struct {
	h            *Hierarchy
	ref          *refHierarchy
	hLog, refLog eventLog
	hAcc, refAcc accessLog
	cycle        int64
	// checkEach calls CheckChanged on both after every operation (it
	// clears the set marks, so it is a setting, not a pure comparison).
	checkEach bool
}

func (p *equivPair) clock() int64 { return p.cycle }

// equivConfig decodes a hierarchy configuration from four bytes: the two
// levels' policies, ways (1–8) and sets, the prefetch buffer and its
// size (-1 to 5, 0 meaning the default), SelfCheck and checkEach.
func equivConfig(b [4]byte) (HierConfig, bool) {
	policies := []Policy{LRU, TreePLRU, Random}
	cfg := HierConfig{
		L1: Config{Name: "L1", Sets: 1 << (b[1] / 8 % 3), Ways: 1 + int(b[1]%8), LineSize: 64,
			HitLatency: 2, Policy: policies[b[0]%3], Seed: int64(b[3])},
		L2: Config{Name: "L2", Sets: 1 << (b[2] / 8 % 4), Ways: 1 + int(b[2]%8), LineSize: 64,
			HitLatency: 12, Policy: policies[b[0]/3%3], Seed: int64(b[3]) + 1},
		MemLatency:         100,
		PrefetchBuffer:     b[0]/9%2 == 1,
		PrefetchBufferSize: int(b[3]%7) - 1,
		SelfCheck:          b[0]/18%2 == 1,
	}
	return cfg, b[0]/36%2 == 1
}

func newEquivPair(t testing.TB, cfg HierConfig, checkEach bool) *equivPair {
	p := &equivPair{checkEach: checkEach}
	var err error
	if p.h, err = NewHierarchy(cfg); err != nil {
		t.Fatal(err)
	}
	if p.ref, err = newRefHierarchy(cfg); err != nil {
		t.Fatal(err)
	}
	p.attach()
	return p
}

// attach (re)connects both sides' probes and listeners, which a
// hierarchy Reset drops.
func (p *equivPair) attach() {
	p.h.SetProbe(&p.hLog, p.clock)
	p.ref.SetProbe(&p.refLog, p.clock)
	p.h.AddListener(&p.hAcc)
	p.ref.AddListener(&p.refAcc)
}

// level returns the same level of both sides, with its event track.
func (p *equivPair) level(l2 bool) (*Cache, *refCache, obs.Track) {
	if l2 {
		return p.h.L2, p.ref.L2, obs.TrackL2
	}
	return p.h.L1, p.ref.L1, obs.TrackL1
}

// step applies operation op with operand a to both sides and returns
// each side's result, rendered.
func (p *equivPair) step(op byte, a uint16) (string, string, string) {
	p.cycle++
	addr := uint64(a&0x7f)<<6 | uint64(a>>10)
	if op&0x80 != 0 {
		addr += 1 << 20
	}
	l2 := op&0x40 != 0
	c, rc, track := p.level(l2)
	seed := int64(a) * 0x9e3779b9
	switch op % 20 {
	case 0, 1, 2, 3, 4:
		w := op&0x20 != 0
		return "Access", fmt.Sprint(p.h.Access(addr, addr^0x55, w)), fmt.Sprint(p.ref.Access(addr, addr^0x55, w))
	case 5, 6:
		return "AccessSilent", fmt.Sprint(p.h.AccessSilent(addr)), fmt.Sprint(p.ref.AccessSilent(addr))
	case 7, 8:
		p.h.Prefetch(addr)
		p.ref.Prefetch(addr)
		return "Prefetch", "", ""
	case 9:
		p.h.EvictAll(addr)
		p.ref.EvictAll(addr)
		return "EvictAll", "", ""
	case 10:
		return "Lookup", fmt.Sprint(c.Lookup(addr)), fmt.Sprint(rc.Lookup(addr))
	case 11, 12:
		pf := op%20 == 12
		v, ev := c.Fill(addr, pf)
		rv, rev := rc.Fill(addr, pf)
		return "Fill", fmt.Sprint(v, ev), fmt.Sprint(rv, rev)
	case 13:
		return "Evict", fmt.Sprint(c.Evict(addr)), fmt.Sprint(rc.Evict(addr))
	case 14:
		if a%8 == 0 {
			c.FlushAll()
			rc.FlushAll()
			return "level FlushAll", "", ""
		}
		if a%8 == 1 {
			c.Reset()
			rc.Reset()
			c.SetProbe(&p.hLog, p.clock, track)
			rc.SetProbe(&p.refLog, p.clock, track)
			return "level Reset", "", ""
		}
		return "Latency", fmt.Sprint(p.h.Latency(addr)), fmt.Sprint(p.ref.Latency(addr))
	case 15:
		if a%8 == 0 {
			p.h.FlushAll()
			p.ref.FlushAll()
			return "FlushAll", "", ""
		}
		if a%8 == 1 {
			p.h.Reset()
			p.ref.Reset()
			p.attach()
			return "Reset", "", ""
		}
		return "AccessSilent", fmt.Sprint(p.h.AccessSilent(addr)), fmt.Sprint(p.ref.AccessSilent(addr))
	case 16:
		if a%4 != 0 {
			return "Access", fmt.Sprint(p.h.Access(addr, 0, false)), fmt.Sprint(p.ref.Access(addr, 0, false))
		}
		if l2 {
			return "L2 CorruptLineTag", fmt.Sprint(c.CorruptLineTag(seed)), fmt.Sprint(rc.CorruptLineTag(seed))
		}
		return "CorruptL1Line", fmt.Sprint(p.h.CorruptL1Line(seed)), fmt.Sprint(p.ref.CorruptL1Line(seed))
	case 17:
		if a%4 != 0 {
			return "Prefetch+Access", fmt.Sprint(p.prefetchAccess(addr)), fmt.Sprint(p.refPrefetchAccess(addr))
		}
		if l2 {
			return "L2 CorruptReplacementState", fmt.Sprint(c.CorruptReplacementState(seed)), fmt.Sprint(rc.CorruptReplacementState(seed))
		}
		return "CorruptL1Replacement", fmt.Sprint(p.h.CorruptL1Replacement(seed)), fmt.Sprint(p.ref.CorruptL1Replacement(seed))
	case 18:
		return "CheckChanged", errString(p.h.CheckChanged()), errString(p.ref.CheckChanged())
	default:
		return "Contains", fmt.Sprint(c.Contains(addr)), fmt.Sprint(rc.Contains(addr))
	}
}

// prefetchAccess prefetches the line after addr's and reads addr, the
// pattern of a stream prefetcher running ahead of its demand stream.
func (p *equivPair) prefetchAccess(addr uint64) AccessResult {
	p.h.Prefetch(addr + 64)
	return p.h.Access(addr, 0, false)
}

func (p *equivPair) refPrefetchAccess(addr uint64) AccessResult {
	p.ref.Prefetch(addr + 64)
	return p.ref.Access(addr, 0, false)
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// diff returns the first difference between the two sides' observable
// state, or "". It consumes the events and listener calls it compares.
func (p *equivPair) diff() string {
	defer func() {
		p.hLog.events, p.refLog.events = p.hLog.events[:0], p.refLog.events[:0]
		p.hAcc.calls, p.refAcc.calls = p.hAcc.calls[:0], p.refAcc.calls[:0]
	}()
	if !slices.Equal(p.hLog.events, p.refLog.events) {
		n := len(p.hLog.events)
		if m := len(p.refLog.events); m > n {
			n = m
		}
		for i := 0; i < n; i++ {
			var e, r obs.Event
			if i < len(p.hLog.events) {
				e = p.hLog.events[i]
			}
			if i < len(p.refLog.events) {
				r = p.refLog.events[i]
			}
			if e != r {
				return fmt.Sprintf("event %d: %+v, reference %+v", i, e, r)
			}
		}
	}
	if !slices.Equal(p.hAcc.calls, p.refAcc.calls) {
		return fmt.Sprintf("listener saw %v, reference %v", p.hAcc.calls, p.refAcc.calls)
	}
	for _, l2 := range []bool{false, true} {
		c, rc, _ := p.level(l2)
		if d := levelDiff(c, rc); d != "" {
			return fmt.Sprintf("%s: %s", c.cfg.Name, d)
		}
	}
	h, r := p.h, p.ref
	if !slices.Equal(h.pbuf, r.pbuf) {
		return fmt.Sprintf("prefetch buffer %#x, reference %#x", h.pbuf, r.pbuf)
	}
	if h.DemandAccesses() != r.DemandAccesses() || h.PrefetchRequests() != r.PrefetchRequests() {
		return fmt.Sprintf("counters %d/%d, reference %d/%d",
			h.DemandAccesses(), h.PrefetchRequests(), r.DemandAccesses(), r.PrefetchRequests())
	}
	if e, re := errString(h.InvariantError()), errString(r.InvariantError()); e != re {
		return fmt.Sprintf("InvariantError %q, reference %q", e, re)
	}
	if e, re := errString(h.CheckInvariants()), errString(r.CheckInvariants()); e != re {
		return fmt.Sprintf("CheckInvariants %q, reference %q", e, re)
	}
	if p.checkEach {
		if e, re := errString(h.CheckChanged()), errString(r.CheckChanged()); e != re {
			return fmt.Sprintf("CheckChanged %q, reference %q", e, re)
		}
	}
	return ""
}

// levelDiff compares one level with its reference: counters, tick,
// generator use, set marks, each set's contents and each way's state.
func levelDiff(c *Cache, rc *refCache) string {
	if c.Stats() != rc.Stats() {
		return fmt.Sprintf("stats %+v, reference %+v", c.Stats(), rc.Stats())
	}
	if c.tick != rc.tick || c.drawn != rc.drawn {
		return fmt.Sprintf("tick %d drawn %v, reference %d %v", c.tick, c.drawn, rc.tick, rc.drawn)
	}
	if !reflect.DeepEqual(c.dirty, rc.dirty) {
		return fmt.Sprintf("set marks %b, reference %b", c.dirty, rc.dirty)
	}
	if e, re := errString(c.CheckReplacementState()), errString(rc.CheckReplacementState()); e != re {
		return fmt.Sprintf("CheckReplacementState %q, reference %q", e, re)
	}
	for s := 0; s < c.cfg.Sets; s++ {
		if got, want := c.SetContents(s), rc.SetContents(s); !reflect.DeepEqual(got, want) {
			return fmt.Sprintf("set %d holds %#x, reference %#x", s, got, want)
		}
		for w, ln := range rc.sets[s] {
			i := s*c.cfg.Ways + w
			valid := c.stamps[i] != 0
			if valid != ln.valid || c.prefetched(i) != ln.prefetched || valid && c.tags[i] != ln.tag {
				return fmt.Sprintf("set %d way %d: valid %v prefetched %v tag %#x, reference %+v",
					s, w, valid, c.prefetched(i), c.tags[i], ln)
			}
			// TreePLRU stamps mark validity only; the reference kept none.
			if c.cfg.Policy != TreePLRU && c.stamps[i] != ln.lastUse {
				return fmt.Sprintf("set %d way %d: stamp %d, reference lastUse %d", s, w, c.stamps[i], ln.lastUse)
			}
		}
		if c.cfg.Policy == TreePLRU && !reflect.DeepEqual(c.treeBits(s), rc.plru[s]) {
			return fmt.Sprintf("set %d tree bits %v, reference %v", s, c.treeBits(s), rc.plru[s])
		}
	}
	return ""
}

// runEquiv decodes a configuration and an operation list from data and
// runs them on both sides, failing at the first difference.
func runEquiv(t testing.TB, data []byte) {
	if len(data) < 4 {
		return
	}
	cfg, checkEach := equivConfig([4]byte(data[:4]))
	p := newEquivPair(t, cfg, checkEach)
	ops := data[4:]
	for n := 0; len(ops) >= 3 && n < 1024; n++ {
		op, a := ops[0], binary.LittleEndian.Uint16(ops[1:3])
		ops = ops[3:]
		name, got, want := p.step(op, a)
		if got != want {
			t.Fatalf("%+v: op %d %s(%#x, %#x) = %s, reference %s", cfg, n, name, op, a, got, want)
		}
		if d := p.diff(); d != "" {
			t.Fatalf("%+v: after op %d %s(%#x, %#x): %s", cfg, n, name, op, a, d)
		}
	}
}

// FuzzCacheEquivalence drives the cache and hierarchy beside their
// [][]line reference over fuzzed configurations — LRU, TreePLRU and
// Random at 1–8 ways, the prefetch buffer on and off, SelfCheck on and
// off — and fuzzed operation lists, and requires identical results,
// events, counters, contents, replacement state and check outcomes after
// every operation.
func FuzzCacheEquivalence(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, cfg := range [][4]byte{{0, 8, 15, 3}, {4, 13, 29, 8}, {17, 21, 7, 1}, {62, 5, 18, 0}, {45, 2, 31, 6}} {
		seed := append([]byte{}, cfg[:]...)
		for i := 0; i < 3*200; i++ {
			seed = append(seed, byte(rng.Intn(256)))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runEquiv(t, data) })
}

// TestCacheEquivalenceLong runs the equivalence over every combination of
// L1 policy, L1 ways (1–8), prefetch buffer and SelfCheck, with the L2
// geometry and policy, the buffer size and the operations drawn from a
// seeded generator.
func TestCacheEquivalenceLong(t *testing.T) {
	ops := 1000
	if testing.Short() {
		ops = 300
	}
	rng := rand.New(rand.NewSource(7))
	for pol := byte(0); pol < 3; pol++ {
		for ways := byte(0); ways < 8; ways++ {
			for flags := byte(0); flags < 4; flags++ {
				b0 := pol + 3*byte(rng.Intn(3)) + 9*(flags&1) + 18*(flags>>1) + 36*byte(rng.Intn(2))
				data := []byte{b0, ways + 8*byte(rng.Intn(3)), byte(rng.Intn(256)), byte(rng.Intn(256))}
				for i := 0; i < 3*ops; i++ {
					data = append(data, byte(rng.Intn(256)))
				}
				runEquiv(t, data)
			}
		}
	}
}
