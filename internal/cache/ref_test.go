package cache

// This file is a test-only copy of the cache and hierarchy as they were
// before each level's ways moved into flat set-major arrays: one
// [][]refLine slice of 24-byte structs per level, a Fill that rescans the
// set for presence, then for a free way, then for a victim, and a prefetch
// buffer that reslices its head away. The equivalence tests drive it
// beside the real types and require identical observable behaviour. It
// is kept verbatim apart from renaming (refCache, refLine, refHierarchy)
// and dropping the types both share; do not optimise it.

import (
	"fmt"
	"math/bits"
	"math/rand"

	"pandora/internal/obs"
)

// line is one cache way. The two flags follow the words so the struct
// packs into 24 bytes.
type refLine struct {
	tag        uint64
	lastUse    uint64 // LRU timestamp
	valid      bool
	prefetched bool // filled by a prefetch, not yet demand-touched
}

// Cache is a single set-associative cache level.
type refCache struct {
	cfg  Config
	sets [][]refLine
	plru [][]bool   // tree bits per set, len ways-1 (TreePLRU)
	rng  *rand.Rand // Random policy only
	// drawn records a draw from rng since it was last seeded: seeding
	// fills a 607-word table, so Reset re-seeds only a generator that
	// moved.
	drawn bool
	tick  uint64
	stats Stats

	probe obs.Probe
	clock func() int64
	track obs.Track

	lineShift uint
	tagShift  uint // lineShift plus the set-index bits
	setMask   uint64

	// dirty has bit s set when set s was mutated since the last passing
	// incremental check (Hierarchy.CheckChanged). Every path that writes
	// a line or replacement bit marks its set — touch, Evict, FlushAll,
	// nthValidLine and CorruptReplacementState — so a set whose bit is
	// clear is unchanged since it last checked clean.
	dirty []uint64
}

// Stats returns a copy of the counters.
func (c *refCache) Stats() Stats { return c.stats }

// SetProbe attaches an event probe. clock supplies the current simulated
// cycle (the cache has no clock of its own); track labels this level's
// events. A nil probe keeps the hot path allocation- and branch-cheap.
func (c *refCache) SetProbe(p obs.Probe, clock func() int64, track obs.Track) {
	c.probe = p
	c.clock = clock
	c.track = track
}

// RegisterMetrics registers this level's counters under prefix.
func (c *refCache) RegisterMetrics(r *obs.Registry, prefix string) {
	r.CounterUint64(prefix+".hits", &c.stats.Hits)
	r.CounterUint64(prefix+".misses", &c.stats.Misses)
	r.CounterUint64(prefix+".evictions", &c.stats.Evictions)
	r.CounterUint64(prefix+".prefetch_fills", &c.stats.PrefetchFills)
	r.CounterUint64(prefix+".prefetch_hits", &c.stats.PrefetchHits)
}

// emit publishes one cache event; no-op (and allocation-free) when no
// probe is attached.
func (c *refCache) emit(k obs.Kind, addr uint64, detail string) {
	if c.probe == nil {
		return
	}
	var cyc int64
	if c.clock != nil {
		cyc = c.clock()
	}
	c.probe.Emit(obs.Event{Cycle: cyc, Kind: k, Track: c.track, Addr: addr, Detail: detail})
}

// New builds a cache from cfg.
func newRef(cfg Config) (*refCache, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &refCache{cfg: cfg}
	// Every set is a window of one slab, capped so no set can grow into
	// its neighbour.
	lines := make([]refLine, cfg.Sets*cfg.Ways)
	c.sets = make([][]refLine, cfg.Sets)
	for i := range c.sets {
		c.sets[i] = lines[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
	}
	if cfg.Policy == TreePLRU {
		n := maxInt(cfg.Ways-1, 1)
		tree := make([]bool, cfg.Sets*n)
		c.plru = make([][]bool, cfg.Sets)
		for i := range c.plru {
			c.plru[i] = tree[i*n : (i+1)*n : (i+1)*n]
		}
	}
	if cfg.Policy == Random {
		// Only random replacement draws; seeding a source is most of
		// what building a small cache costs.
		c.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	for l := cfg.LineSize; l > 1; l >>= 1 {
		c.lineShift++
	}
	c.tagShift = c.lineShift + uint(bits.TrailingZeros(uint(cfg.Sets)))
	c.setMask = uint64(cfg.Sets - 1)
	c.dirty = make([]uint64, (cfg.Sets+63)/64)
	return c, nil
}

// Reset returns c to the state New builds from its config: every line
// invalid, the replacement state and tick zeroed, the Random policy's
// generator re-seeded from Config.Seed if it has drawn since (so it
// repeats New's draw sequence), stats zeroed, no set marked and no
// probe attached. The geometry and its storage are kept.
func (c *refCache) Reset() {
	for _, s := range c.sets {
		clear(s)
	}
	for _, t := range c.plru {
		clear(t)
	}
	if c.drawn {
		c.rng.Seed(c.cfg.Seed)
		c.drawn = false
	}
	c.tick = 0
	c.stats = Stats{}
	c.probe, c.clock, c.track = nil, nil, 0
	clear(c.dirty)
}

// MustNew is New that panics on config error.
func mustNewRef(cfg Config) *refCache {
	c, err := newRef(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache geometry.
func (c *refCache) Config() Config { return c.cfg }

// SetOf returns the set index addr maps to.
func (c *refCache) SetOf(addr uint64) int {
	return int((addr >> c.lineShift) & c.setMask)
}

// tagOf returns the tag for addr.
func (c *refCache) tagOf(addr uint64) uint64 {
	return addr >> c.tagShift
}

// LineAddr returns the line-aligned address containing addr.
func (c *refCache) LineAddr(addr uint64) uint64 {
	return addr >> c.lineShift << c.lineShift
}

// Contains reports whether the line holding addr is present. It does not
// update replacement state (a pure probe, for assertions and analysis, not
// a hardware operation).
func (c *refCache) Contains(addr uint64) bool {
	set, tag := c.SetOf(addr), c.tagOf(addr)
	for i := range c.sets[set] {
		if c.sets[set][i].valid && c.sets[set][i].tag == tag {
			return true
		}
	}
	return false
}

// Lookup performs a demand access: on hit it updates replacement state and
// returns true; on miss it returns false without filling (the hierarchy
// decides fills). evictedLine reports the address of a line displaced by
// Fill, not Lookup, so it is absent here.
func (c *refCache) Lookup(addr uint64) bool {
	c.tick++
	set, tag := c.SetOf(addr), c.tagOf(addr)
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.valid && ln.tag == tag {
			c.stats.Hits++
			if ln.prefetched {
				c.stats.PrefetchHits++
				ln.prefetched = false
				c.emit(obs.KindCacheHit, addr, "prefetched")
			} else {
				c.emit(obs.KindCacheHit, addr, "")
			}
			c.touch(set, i)
			return true
		}
	}
	c.stats.Misses++
	c.emit(obs.KindCacheMiss, addr, "")
	return false
}

// Fill inserts the line holding addr, evicting per policy if needed. It
// returns the line-aligned address of the victim and whether one was
// evicted. prefetched marks the line as prefetch-filled for stats.
func (c *refCache) Fill(addr uint64, prefetched bool) (victim uint64, evicted bool) {
	c.tick++
	set, tag := c.SetOf(addr), c.tagOf(addr)
	// Already present: refresh. A demand re-fill clears the prefetched
	// mark (the line is demand-touched now), but a prefetch re-fill of a
	// demand-resident line must NOT set it: the line's presence was
	// already earned by demand, and marking it would let a later Lookup
	// invent a PrefetchHit for a line no prefetch brought in —
	// PrefetchHits could exceed PrefetchFills, since the refresh path
	// never counts a fill.
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.valid && ln.tag == tag {
			ln.prefetched = ln.prefetched && prefetched
			c.touch(set, i)
			return 0, false
		}
	}
	fillDetail := ""
	if prefetched {
		fillDetail = "prefetch"
	}
	// Free way?
	for i := range c.sets[set] {
		if !c.sets[set][i].valid {
			c.sets[set][i] = refLine{valid: true, tag: tag, prefetched: prefetched}
			c.touch(set, i)
			if prefetched {
				c.stats.PrefetchFills++
			}
			c.emit(obs.KindCacheFill, c.LineAddr(addr), fillDetail)
			return 0, false
		}
	}
	// Evict.
	w := c.victimWay(set)
	old := c.sets[set][w]
	c.sets[set][w] = refLine{valid: true, tag: tag, prefetched: prefetched}
	c.touch(set, w)
	c.stats.Evictions++
	if prefetched {
		c.stats.PrefetchFills++
	}
	victim = c.addrOf(set, old.tag)
	c.emit(obs.KindCacheEvict, victim, "")
	c.emit(obs.KindCacheFill, c.LineAddr(addr), fillDetail)
	return victim, true
}

// Evict removes the line containing addr if present, returning whether it
// was. Models back-invalidation (inclusive hierarchies) and test setup.
func (c *refCache) Evict(addr uint64) bool {
	set, tag := c.SetOf(addr), c.tagOf(addr)
	for i := range c.sets[set] {
		if c.sets[set][i].valid && c.sets[set][i].tag == tag {
			c.sets[set][i] = refLine{}
			c.mark(set)
			c.emit(obs.KindCacheEvict, c.LineAddr(addr), "invalidate")
			return true
		}
	}
	return false
}

// FlushAll invalidates every line.
func (c *refCache) FlushAll() {
	for s := range c.sets {
		for w := range c.sets[s] {
			c.sets[s][w] = refLine{}
		}
		c.mark(s)
	}
}

// mark records that set was mutated, for the incremental check.
func (c *refCache) mark(set int) {
	c.dirty[set>>6] |= 1 << (uint(set) & 63)
}

// addrOf reconstructs the line address for (set, tag).
func (c *refCache) addrOf(set int, tag uint64) uint64 {
	return (tag*uint64(c.cfg.Sets) + uint64(set)) << c.lineShift
}

// SetContents returns the line addresses currently valid in set, for
// analysis and tests (most-recently-used order is not implied).
func (c *refCache) SetContents(set int) []uint64 {
	var out []uint64
	for _, ln := range c.sets[set] {
		if ln.valid {
			out = append(out, c.addrOf(set, ln.tag))
		}
	}
	return out
}

func (c *refCache) touch(set, way int) {
	c.mark(set)
	switch c.cfg.Policy {
	case LRU, Random:
		c.sets[set][way].lastUse = c.tick
	case TreePLRU:
		// Walk root→leaf; at each node set the bit to point away from
		// the touched way (true = victim side is right).
		//
		// The tree over a non-power-of-two way count is irregular (a left
		// subtree of floor(n/2) leaves, a right subtree of the rest), so
		// the bits use subtree-offset indexing — a subtree of n leaves
		// owns n-1 consecutive bits, root first — rather than complete-
		// binary-heap indexing, which walks out of the array for such
		// trees (left child of the root's right child is at heap index 5
		// of a 2-bit array for Ways=3).
		bits := c.plru[set]
		n := c.cfg.Ways
		node, lo := 0, 0
		for n > 1 {
			half := n / 2
			if way < lo+half {
				bits[node] = true
				node++ // left subtree root
				n = half
			} else {
				bits[node] = false
				node += half // skip the left subtree's half-1 bits
				lo += half
				n -= half
			}
		}
	}
}

// CheckReplacementState verifies the cache's replacement metadata: no set
// holds two valid lines with the same tag, every LRU timestamp is bounded
// by the access tick (timestamps are assigned from the monotone tick, so a
// larger value means corrupted state), and for TreePLRU the victim walk of
// every set stays inside the bit array and lands on a legal way — the
// property the heap-indexed walk violated for non-power-of-two way counts.
// It is a pure probe used by the invariant-checking harness.
func (c *refCache) CheckReplacementState() error {
	for s := range c.sets {
		if err := c.checkSet(s); err != nil {
			return err
		}
	}
	return nil
}

// checkDirtySets is CheckReplacementState over the marked sets only, in
// the same ascending order, so it reports the same first violation as
// the full sweep whenever every unmarked set last checked clean.
func (c *refCache) checkDirtySets() error {
	for wi, word := range c.dirty {
		for word != 0 {
			s := wi<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			if err := c.checkSet(s); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkSet runs CheckReplacementState's checks on one set. The duplicate
// scan compares each valid way against the earlier ones — at most Ways
// lines, no allocation — and names the earliest matching way first.
func (c *refCache) checkSet(s int) error {
	lines := c.sets[s]
	for w, ln := range lines {
		if !ln.valid {
			continue
		}
		for prev := 0; prev < w; prev++ {
			if lines[prev].valid && lines[prev].tag == ln.tag {
				return fmt.Errorf("cache %s: set %d ways %d and %d both hold tag %#x",
					c.cfg.Name, s, prev, w, ln.tag)
			}
		}
		if ln.lastUse > c.tick {
			return fmt.Errorf("cache %s: set %d way %d lastUse %d ahead of tick %d",
				c.cfg.Name, s, w, ln.lastUse, c.tick)
		}
	}
	if c.cfg.Policy == TreePLRU {
		bits := c.plru[s]
		n := c.cfg.Ways
		node, lo := 0, 0
		for n > 1 {
			if node < 0 || node >= len(bits) {
				return fmt.Errorf("cache %s: set %d tree-plru walk node %d outside [0,%d)",
					c.cfg.Name, s, node, len(bits))
			}
			half := n / 2
			if bits[node] {
				node += half
				lo += half
				n -= half
			} else {
				node++
				n = half
			}
		}
		if lo < 0 || lo >= c.cfg.Ways {
			return fmt.Errorf("cache %s: set %d tree-plru victim way %d outside [0,%d)",
				c.cfg.Name, s, lo, c.cfg.Ways)
		}
	}
	return nil
}

// CorruptLineTag flips a high tag bit of one valid line, chosen
// deterministically by seed — a seeded structural fault for the
// fault-injection campaign. The flipped bit is far above any address the
// simulator touches, so in a hierarchy the corrupted line is guaranteed
// absent from the other level and CheckInclusive must object. Returns
// false when the cache holds no valid line to corrupt (the injector
// retries later).
func (c *refCache) CorruptLineTag(seed int64) bool {
	target := c.nthValidLine(seed)
	if target == nil {
		return false
	}
	target.tag ^= 1 << 40
	return true
}

// CorruptReplacementState corrupts replacement metadata for one set,
// chosen deterministically by seed. For LRU/Random a valid line's
// timestamp is pushed ahead of the access tick — illegal state that
// CheckReplacementState must flag. For TreePLRU one tree bit is flipped:
// the state stays structurally legal but the victim choice changes, a
// pure timing fault only a reference-run comparison can see. Returns
// false when there is nothing to corrupt yet.
func (c *refCache) CorruptReplacementState(seed int64) bool {
	if c.cfg.Policy == TreePLRU {
		set := int(uint64(seed) % uint64(len(c.plru)))
		bits := c.plru[set]
		bit := int(uint64(seed) >> 16 % uint64(len(bits)))
		bits[bit] = !bits[bit]
		c.mark(set)
		return true
	}
	target := c.nthValidLine(seed)
	if target == nil {
		return false
	}
	target.lastUse = c.tick + 1_000_000
	return true
}

// nthValidLine returns the seed-selected valid line, or nil if none. The
// caller is about to corrupt it, so its set is marked.
func (c *refCache) nthValidLine(seed int64) *refLine {
	valid := 0
	for s := range c.sets {
		for w := range c.sets[s] {
			if c.sets[s][w].valid {
				valid++
			}
		}
	}
	if valid == 0 {
		return nil
	}
	n := int(uint64(seed) % uint64(valid))
	for s := range c.sets {
		for w := range c.sets[s] {
			if c.sets[s][w].valid {
				if n == 0 {
					c.mark(s)
					return &c.sets[s][w]
				}
				n--
			}
		}
	}
	return nil
}

func (c *refCache) victimWay(set int) int {
	switch c.cfg.Policy {
	case Random:
		c.drawn = true
		return c.rng.Intn(c.cfg.Ways)
	case TreePLRU:
		// Follow the bits toward the pseudo-LRU leaf, mirroring touch's
		// subtree-offset indexing (the heap-indexed walk used previously
		// read past the bit array for non-power-of-two way counts and
		// could never select the last way as victim).
		bits := c.plru[set]
		n := c.cfg.Ways
		node, lo := 0, 0
		for n > 1 {
			half := n / 2
			if bits[node] {
				node += half
				lo += half
				n -= half
			} else {
				node++
				n = half
			}
		}
		return lo
	default: // LRU
		best, bestUse := 0, ^uint64(0)
		for i, ln := range c.sets[set] {
			if ln.lastUse < bestUse {
				best, bestUse = i, ln.lastUse
			}
		}
		return best
	}
}

// refHierarchy is an inclusive two-level cache with prefetch support.
type refHierarchy struct {
	cfg HierConfig
	L1  *refCache
	L2  *refCache

	pbuf []uint64 // FIFO of line addresses in the prefetch buffer

	// Listeners observe demand accesses; the data memory-dependent
	// prefetcher registers itself here.
	listeners []AccessListener

	// invErr latches the first invariant violation found by SelfCheck.
	invErr error

	// incl is CheckChanged's scratch bitmap of the L1 sets whose
	// inclusivity it must re-check; sized once, reused every call.
	incl []uint64

	probe obs.Probe
	clock func() int64

	demandAccesses   uint64
	prefetchRequests uint64
}

// DemandAccesses returns the total demand accesses made through Access.
func (h *refHierarchy) DemandAccesses() uint64 { return h.demandAccesses }

// PrefetchRequests returns the total prefetch requests.
func (h *refHierarchy) PrefetchRequests() uint64 { return h.prefetchRequests }

// SetProbe attaches an event probe to both levels (tracks L1/L2) and to
// the prefetch path. clock supplies the current simulated cycle.
func (h *refHierarchy) SetProbe(p obs.Probe, clock func() int64) {
	h.probe = p
	h.clock = clock
	h.L1.SetProbe(p, clock, obs.TrackL1)
	h.L2.SetProbe(p, clock, obs.TrackL2)
}

// RegisterMetrics registers both levels' counters plus the hierarchy's
// own under "l1.", "l2." and "hier.".
func (h *refHierarchy) RegisterMetrics(r *obs.Registry) {
	h.L1.RegisterMetrics(r, "l1")
	h.L2.RegisterMetrics(r, "l2")
	r.CounterUint64("hier.demand_accesses", &h.demandAccesses)
	r.CounterUint64("hier.prefetch_requests", &h.prefetchRequests)
}

// newRefHierarchy builds the hierarchy.
func newRefHierarchy(cfg HierConfig) (*refHierarchy, error) {
	if cfg.MemLatency <= 0 {
		return nil, fmt.Errorf("cache: MemLatency must be positive, got %d", cfg.MemLatency)
	}
	if cfg.L1.LineSize != cfg.L2.LineSize {
		return nil, fmt.Errorf("cache: L1/L2 line sizes differ (%d vs %d)", cfg.L1.LineSize, cfg.L2.LineSize)
	}
	l1, err := newRef(cfg.L1)
	if err != nil {
		return nil, err
	}
	l2, err := newRef(cfg.L2)
	if err != nil {
		return nil, err
	}
	if cfg.PrefetchBuffer && cfg.PrefetchBufferSize == 0 {
		cfg.PrefetchBufferSize = 8
	}
	return &refHierarchy{cfg: cfg, L1: l1, L2: l2, incl: make([]uint64, len(l1.dirty))}, nil
}

// Reset returns h to the state newRefHierarchy builds from its config: both
// levels reset (Cache.Reset), the prefetch buffer empty, no listeners, no
// probe, no latched invariant violation and the counters zeroed. The
// storage is kept, so a caller that runs many programs on one geometry
// builds the hierarchy once.
func (h *refHierarchy) Reset() {
	h.L1.Reset()
	h.L2.Reset()
	h.pbuf = h.pbuf[:0]
	clear(h.listeners)
	h.listeners = h.listeners[:0]
	h.invErr = nil
	clear(h.incl)
	h.probe, h.clock = nil, nil
	h.demandAccesses, h.prefetchRequests = 0, 0
}

// mustNewRefHierarchy is newRefHierarchy that panics on config error.
func mustNewRefHierarchy(cfg HierConfig) *refHierarchy {
	h, err := newRefHierarchy(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// Config returns the hierarchy configuration.
func (h *refHierarchy) Config() HierConfig { return h.cfg }

// AddListener registers an access observer.
func (h *refHierarchy) AddListener(l AccessListener) {
	h.listeners = append(h.listeners, l)
}

// Access performs a demand access (timing only; data moves in package
// mem). data is the value read or written, forwarded to listeners so the
// IMP can train. Fills are inclusive: an L2 miss fills both levels.
func (h *refHierarchy) Access(addr uint64, data uint64, isWrite bool) AccessResult {
	h.demandAccesses++
	res := h.accessTiming(addr)
	for _, l := range h.listeners {
		l.OnAccess(addr, data, isWrite)
	}
	return res
}

// AccessSilent is Access without notifying listeners — used by hardware-
// internal accesses (the silent-store SS-Load, prefetcher pointer chases)
// that must not retrain the prefetcher on themselves.
func (h *refHierarchy) AccessSilent(addr uint64) AccessResult {
	return h.accessTiming(addr)
}

func (h *refHierarchy) accessTiming(addr uint64) AccessResult {
	if h.cfg.SelfCheck {
		defer h.selfCheck("access", addr)
	}
	if h.L1.Lookup(addr) {
		return AccessResult{Latency: h.cfg.L1.HitLatency, L1Hit: true}
	}
	// Prefetch buffer in front of L1.
	if h.cfg.PrefetchBuffer {
		la := h.L1.LineAddr(addr)
		for i, b := range h.pbuf {
			if b == la {
				h.pbuf = append(h.pbuf[:i], h.pbuf[i+1:]...)
				h.fillL1(addr)
				// Buffer hit costs an L2-ish latency: the buffer sits
				// beside L1 but off the critical path.
				return AccessResult{Latency: h.cfg.L1.HitLatency + 1, BufferHit: true}
			}
		}
	}
	if h.L2.Lookup(addr) {
		h.fillL1(addr)
		return AccessResult{Latency: h.cfg.L2.HitLatency, L2Hit: true}
	}
	h.fillL2(addr, false)
	h.fillL1(addr)
	return AccessResult{Latency: h.cfg.MemLatency}
}

// fillL2 inserts into L2 and enforces inclusion: a line evicted from L2
// is back-invalidated out of L1 (and the prefetch buffer).
func (h *refHierarchy) fillL2(addr uint64, prefetched bool) {
	victim, evicted := h.L2.Fill(addr, prefetched)
	if evicted {
		h.L1.Evict(victim)
		la := h.L1.LineAddr(victim)
		for i, b := range h.pbuf {
			if b == la {
				h.pbuf = append(h.pbuf[:i], h.pbuf[i+1:]...)
				break
			}
		}
	}
}

// fillL1 inserts into L1 (demand fill).
func (h *refHierarchy) fillL1(addr uint64) {
	h.L1.Fill(addr, false)
}

// Prefetch inserts the line holding addr as a prefetch. With a prefetch
// buffer configured, L1 is bypassed but L2 still fills.
func (h *refHierarchy) Prefetch(addr uint64) {
	h.prefetchRequests++
	if h.probe != nil {
		var cyc int64
		if h.clock != nil {
			cyc = h.clock()
		}
		h.probe.Emit(obs.Event{Cycle: cyc, Kind: obs.KindCachePrefetch, Track: obs.TrackPrefetch, Addr: h.L1.LineAddr(addr)})
	}
	if h.cfg.SelfCheck {
		defer h.selfCheck("prefetch", addr)
	}
	h.fillL2(addr, true)
	if h.cfg.PrefetchBuffer {
		la := h.L1.LineAddr(addr)
		for _, b := range h.pbuf {
			if b == la {
				return
			}
		}
		h.pbuf = append(h.pbuf, la)
		if len(h.pbuf) > h.cfg.PrefetchBufferSize {
			h.pbuf = h.pbuf[1:]
		}
		return
	}
	h.L1.Fill(addr, true)
}

// Latency returns the cycles a load of addr would take right now, without
// perturbing any state. Used by analysis code, never by modeled hardware.
func (h *refHierarchy) Latency(addr uint64) int {
	if h.L1.Contains(addr) {
		return h.cfg.L1.HitLatency
	}
	if h.L2.Contains(addr) {
		return h.cfg.L2.HitLatency
	}
	return h.cfg.MemLatency
}

// CheckInclusive verifies L2 ⊇ L1: every valid L1 line, and every line
// parked in the prefetch buffer, must be present in L2. A pure probe.
func (h *refHierarchy) CheckInclusive() error {
	for s := range h.L1.sets {
		if err := h.checkInclusiveSet(s); err != nil {
			return err
		}
	}
	return h.checkPrefetchBuffer()
}

// checkInclusiveSet verifies that every valid line of L1 set s is in L2.
func (h *refHierarchy) checkInclusiveSet(s int) error {
	for _, ln := range h.L1.sets[s] {
		if !ln.valid {
			continue
		}
		if la := h.L1.addrOf(s, ln.tag); !h.L2.Contains(la) {
			return fmt.Errorf("cache: inclusivity broken: L1 line %#x absent from L2", la)
		}
	}
	return nil
}

// checkPrefetchBuffer verifies every prefetch-buffer line is in L2.
func (h *refHierarchy) checkPrefetchBuffer() error {
	for _, la := range h.pbuf {
		if !h.L2.Contains(la) {
			return fmt.Errorf("cache: inclusivity broken: prefetch-buffer line %#x absent from L2", la)
		}
	}
	return nil
}

// CheckInvariants runs every structural check over every set:
// inclusivity plus both levels' replacement-state sanity. A pure probe;
// it neither reads nor clears the marks CheckChanged keeps.
func (h *refHierarchy) CheckInvariants() error {
	if err := h.CheckInclusive(); err != nil {
		return err
	}
	if err := h.L1.CheckReplacementState(); err != nil {
		return err
	}
	return h.L2.CheckReplacementState()
}

// CheckChanged is CheckInvariants restricted to the sets mutated since
// the last time it passed. It re-checks inclusivity for every marked L1
// set and for every L1 set sharing index bits with a marked L2 set (an
// L2-side removal can orphan an L1 line without touching L1), always
// checks the prefetch buffer, and runs the replacement-state checks on
// the marked sets of each level, all in CheckInvariants' order. When
// every unmarked set last checked clean it therefore returns exactly
// what CheckInvariants would. A pass clears the marks; a failure keeps
// them, so the violation is reported again until it is gone.
func (h *refHierarchy) CheckChanged() error {
	copy(h.incl, h.L1.dirty)
	n1, n2 := len(h.L1.sets), len(h.L2.sets)
	for wi, word := range h.L2.dirty {
		for word != 0 {
			s2 := wi<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			for s := s2 & (n1 - 1); s < n1; s += n2 {
				h.incl[s>>6] |= 1 << (uint(s) & 63)
			}
		}
	}
	for wi, word := range h.incl {
		for word != 0 {
			s := wi<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			if err := h.checkInclusiveSet(s); err != nil {
				return err
			}
		}
	}
	if err := h.checkPrefetchBuffer(); err != nil {
		return err
	}
	if err := h.L1.checkDirtySets(); err != nil {
		return err
	}
	if err := h.L2.checkDirtySets(); err != nil {
		return err
	}
	clear(h.L1.dirty)
	clear(h.L2.dirty)
	return nil
}

// InvariantError returns the first violation latched by SelfCheck mode,
// or nil.
func (h *refHierarchy) InvariantError() error { return h.invErr }

// selfCheck latches the first invariant violation, tagged with the
// operation that exposed it.
func (h *refHierarchy) selfCheck(op string, addr uint64) {
	if h.invErr != nil {
		return
	}
	if err := h.CheckChanged(); err != nil {
		h.invErr = fmt.Errorf("after %s of %#x: %w", op, addr, err)
	}
}

// CorruptL1Line flips a tag bit of one valid L1 line (fault injection):
// the corrupted line is no longer backed by L2, so inclusivity checking
// must object. Returns false when L1 is still empty.
func (h *refHierarchy) CorruptL1Line(seed int64) bool {
	return h.L1.CorruptLineTag(seed)
}

// CorruptL1Replacement corrupts L1 replacement metadata (fault
// injection). Returns false when there is nothing to corrupt yet.
func (h *refHierarchy) CorruptL1Replacement(seed int64) bool {
	return h.L1.CorruptReplacementState(seed)
}

// EvictAll removes the line containing addr from every level.
func (h *refHierarchy) EvictAll(addr uint64) {
	h.L1.Evict(addr)
	h.L2.Evict(addr)
	la := h.L1.LineAddr(addr)
	for i, b := range h.pbuf {
		if b == la {
			h.pbuf = append(h.pbuf[:i], h.pbuf[i+1:]...)
			break
		}
	}
}

// FlushAll empties every level and the prefetch buffer.
func (h *refHierarchy) FlushAll() {
	h.L1.FlushAll()
	h.L2.FlushAll()
	h.pbuf = nil
}
