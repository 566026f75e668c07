// Package cache implements the set-associative cache models used by the
// simulator: single caches with pluggable replacement policies, and a
// two-level inclusive hierarchy with a fixed-latency memory behind it.
//
// The cache is a pure timing/presence model: data values live in package
// mem. That split mirrors how the paper reasons about channels — a cache
// leaks *which lines are present*, never their contents.
package cache

import (
	"fmt"
	"math/bits"
	"math/rand"

	"pandora/internal/obs"
)

// Policy selects a replacement policy.
type Policy uint8

const (
	// LRU evicts the least-recently-used way.
	LRU Policy = iota
	// Random evicts a uniformly random way (seeded, deterministic).
	Random
	// TreePLRU evicts following a binary pseudo-LRU tree.
	TreePLRU
)

func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case Random:
		return "random"
	case TreePLRU:
		return "tree-plru"
	}
	return "policy?"
}

// Config describes one cache level.
type Config struct {
	Name       string
	Sets       int // power of two
	Ways       int
	LineSize   int // bytes, power of two
	HitLatency int // cycles
	Policy     Policy
	Seed       int64 // for Random replacement
}

func (c Config) validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache %s: Sets must be a positive power of two, got %d", c.Name, c.Sets)
	}
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache %s: LineSize must be a positive power of two, got %d", c.Name, c.LineSize)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache %s: Ways must be positive, got %d", c.Name, c.Ways)
	}
	if c.HitLatency <= 0 {
		return fmt.Errorf("cache %s: HitLatency must be positive, got %d", c.Name, c.HitLatency)
	}
	return nil
}

// Stats counts cache events. Counters live behind the Stats() getter and
// the obs registry (RegisterMetrics); only this package increments them.
type Stats struct {
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	PrefetchFills uint64
	PrefetchHits  uint64 // demand accesses satisfied by a prefetched line
}

// Cache is a single set-associative cache level.
//
// Its ways live in flat, set-major, pointer-free arrays: way w of set s
// is index s*Ways+w of tags and stamps, and bit s*Ways+w of pref. A way
// is valid exactly when its stamp is non-zero: every touch stamps the
// way with the access tick, which is at least 1 by then, and every
// invalidation zeroes it.
type Cache struct {
	cfg    Config
	tags   []uint64
	stamps []uint64   // tick of the way's last touch; 0 marks an invalid way
	pref   []uint64   // bitset: way filled by a prefetch, not yet demand-touched
	plru   []bool     // tree bits, plruBits per set (TreePLRU)
	rng    *rand.Rand // Random policy only
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
	plruBits  int

	// dirty has bit s set when set s was mutated since the last passing
	// incremental check (Hierarchy.CheckChanged). Every path that writes
	// a way or replacement bit marks its set — a Lookup hit, fill, Evict,
	// FlushAll, nthValidWay and CorruptReplacementState — so a set whose
	// bit is clear is unchanged since it last checked clean.
	dirty []uint64
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// SetProbe attaches an event probe. clock supplies the current simulated
// cycle (the cache has no clock of its own); track labels this level's
// events. A nil probe keeps the hot path allocation- and branch-cheap.
func (c *Cache) SetProbe(p obs.Probe, clock func() int64, track obs.Track) {
	c.probe = p
	c.clock = clock
	c.track = track
}

// RegisterMetrics registers this level's counters under prefix.
func (c *Cache) RegisterMetrics(r *obs.Registry, prefix string) {
	r.CounterUint64(prefix+".hits", &c.stats.Hits)
	r.CounterUint64(prefix+".misses", &c.stats.Misses)
	r.CounterUint64(prefix+".evictions", &c.stats.Evictions)
	r.CounterUint64(prefix+".prefetch_fills", &c.stats.PrefetchFills)
	r.CounterUint64(prefix+".prefetch_hits", &c.stats.PrefetchHits)
}

// emit publishes one cache event; no-op (and allocation-free) when no
// probe is attached. It inlines to the probe check; the event is built
// out of line.
func (c *Cache) emit(k obs.Kind, addr uint64, detail string) {
	if c.probe != nil {
		c.emitEvent(k, addr, detail)
	}
}

func (c *Cache) emitEvent(k obs.Kind, addr uint64, detail string) {
	var cyc int64
	if c.clock != nil {
		cyc = c.clock()
	}
	c.probe.Emit(obs.Event{Cycle: cyc, Kind: k, Track: c.track, Addr: addr, Detail: detail})
}

// emitFill publishes a fill's events, the victim's eviction first. fill
// calls it only with a probe attached, so an unprobed fill builds
// neither event.
func (c *Cache) emitFill(addr, victim uint64, evicted, prefetched bool) {
	if evicted {
		c.emitEvent(obs.KindCacheEvict, victim, "")
	}
	fillDetail := ""
	if prefetched {
		fillDetail = "prefetch"
	}
	c.emitEvent(obs.KindCacheFill, c.LineAddr(addr), fillDetail)
}

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Cache{cfg: cfg}
	// The way arrays and the set marks are windows of one slab, each
	// capped so none can grow into its neighbour.
	n := cfg.Sets * cfg.Ways
	prefWords, dirtyWords := (n+63)/64, (cfg.Sets+63)/64
	slab := make([]uint64, 2*n+prefWords+dirtyWords)
	c.tags, slab = slab[:n:n], slab[n:]
	c.stamps, slab = slab[:n:n], slab[n:]
	c.pref, c.dirty = slab[:prefWords:prefWords], slab[prefWords:]
	if cfg.Policy == TreePLRU {
		c.plruBits = maxInt(cfg.Ways-1, 1)
		c.plru = make([]bool, cfg.Sets*c.plruBits)
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
	return c, nil
}

// Reset returns c to the state New builds from its config: every way
// invalid, the replacement state and tick zeroed, the Random policy's
// generator re-seeded from Config.Seed if it has drawn since (so it
// repeats New's draw sequence), stats zeroed, no set marked and no
// probe attached. The geometry and its storage are kept.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.stamps)
	clear(c.pref)
	clear(c.plru)
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
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// SetOf returns the set index addr maps to.
func (c *Cache) SetOf(addr uint64) int {
	return int((addr >> c.lineShift) & c.setMask)
}

// tagOf returns the tag for addr.
func (c *Cache) tagOf(addr uint64) uint64 {
	return addr >> c.tagShift
}

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr >> c.lineShift << c.lineShift
}

// find returns the index of the first valid way of set that holds tag,
// or -1.
func (c *Cache) find(set int, tag uint64) int {
	base := set * c.cfg.Ways
	tags := c.tags[base : base+c.cfg.Ways]
	stamps := c.stamps[base : base+len(tags)]
	for w, t := range tags {
		if t == tag && stamps[w] != 0 {
			return base + w
		}
	}
	return -1
}

// prefetched reports way i's prefetch mark.
func (c *Cache) prefetched(i int) bool {
	return c.pref[i>>6]&(1<<(uint(i)&63)) != 0
}

// setPrefetched sets way i's prefetch mark to on.
func (c *Cache) setPrefetched(i int, on bool) {
	bit := uint64(1) << (uint(i) & 63)
	if on {
		c.pref[i>>6] |= bit
	} else {
		c.pref[i>>6] &^= bit
	}
}

// Contains reports whether the line holding addr is present. It does not
// update replacement state (a pure probe, for assertions and analysis, not
// a hardware operation).
func (c *Cache) Contains(addr uint64) bool {
	return c.find(c.SetOf(addr), c.tagOf(addr)) >= 0
}

// Lookup performs a demand access: on hit it updates replacement state and
// returns true; on miss it returns false without filling (the hierarchy
// decides fills). evictedLine reports the address of a line displaced by
// Fill, not Lookup, so it is absent here.
func (c *Cache) Lookup(addr uint64) bool {
	c.tick++
	set := c.SetOf(addr)
	i := c.find(set, c.tagOf(addr))
	if i < 0 {
		c.stats.Misses++
		c.emit(obs.KindCacheMiss, addr, "")
		return false
	}
	c.stats.Hits++
	c.mark(set)
	if c.prefetched(i) {
		c.stats.PrefetchHits++
		c.setPrefetched(i, false)
		c.emit(obs.KindCacheHit, addr, "prefetched")
	} else {
		c.emit(obs.KindCacheHit, addr, "")
	}
	c.touch(i)
	return true
}

// Fill inserts the line holding addr, evicting per policy if needed. It
// returns the line-aligned address of the victim and whether one was
// evicted. prefetched marks the line as prefetch-filled for stats.
func (c *Cache) Fill(addr uint64, prefetched bool) (victim uint64, evicted bool) {
	return c.fill(addr, prefetched, true)
}

// fillMissed is a demand Fill of a line the caller has just missed on in
// this level, with nothing filled since: it skips the presence scan.
func (c *Cache) fillMissed(addr uint64) (victim uint64, evicted bool) {
	return c.fill(addr, false, false)
}

// fill is Fill in one pass over the set. With present set it also looks
// for the line itself. The pass keeps the way with the least stamp,
// first among equals: invalid ways hold stamp 0 and valid ways at least
// 1, so that way is the first free one if any is free, and otherwise the
// least-recently-used one, LRU's victim. Random and TreePLRU take the
// free way too, and draw or walk for a victim only when none is free, so
// the Random generator draws exactly when it always has.
func (c *Cache) fill(addr uint64, prefetched, present bool) (victim uint64, evicted bool) {
	c.tick++
	set, tag := c.SetOf(addr), c.tagOf(addr)
	base := set * c.cfg.Ways
	tags := c.tags[base : base+c.cfg.Ways]
	stamps := c.stamps[base : base+len(tags)]
	c.mark(set) // every path below touches a way
	way, least := 0, ^uint64(0)
	for w, s := range stamps {
		if present && s != 0 && tags[w] == tag {
			// Already present: refresh. A demand re-fill clears the
			// prefetched mark (the line is demand-touched now), but a
			// prefetch re-fill of a demand-resident line must NOT set it:
			// the line's presence was already earned by demand, and
			// marking it would let a later Lookup invent a PrefetchHit
			// for a line no prefetch brought in — PrefetchHits could
			// exceed PrefetchFills, since the refresh path never counts
			// a fill.
			if !prefetched {
				c.setPrefetched(base+w, false)
			}
			c.touch(base + w)
			return 0, false
		}
		if s < least {
			way, least = w, s
		}
	}
	evicted = least != 0
	if evicted && c.cfg.Policy != LRU {
		way = c.victimWay(set)
	}
	i := base + way
	if evicted {
		victim = c.addrOf(set, tags[way])
		c.stats.Evictions++
	}
	tags[way] = tag
	c.setPrefetched(i, prefetched)
	c.touch(i)
	if prefetched {
		c.stats.PrefetchFills++
	}
	if c.probe != nil {
		c.emitFill(addr, victim, evicted, prefetched)
	}
	return victim, evicted
}

// Evict removes the line containing addr if present, returning whether it
// was. Models back-invalidation (inclusive hierarchies) and test setup.
func (c *Cache) Evict(addr uint64) bool {
	set := c.SetOf(addr)
	i := c.find(set, c.tagOf(addr))
	if i < 0 {
		return false
	}
	c.tags[i], c.stamps[i] = 0, 0
	c.setPrefetched(i, false)
	c.mark(set)
	c.emit(obs.KindCacheEvict, c.LineAddr(addr), "invalidate")
	return true
}

// FlushAll invalidates every line.
func (c *Cache) FlushAll() {
	clear(c.tags)
	clear(c.stamps)
	clear(c.pref)
	for s := 0; s < c.cfg.Sets; s++ {
		c.mark(s)
	}
}

// mark records that set was mutated, for the incremental check.
func (c *Cache) mark(set int) {
	c.dirty[set>>6] |= 1 << (uint(set) & 63)
}

// addrOf reconstructs the line address for (set, tag).
func (c *Cache) addrOf(set int, tag uint64) uint64 {
	return (tag*uint64(c.cfg.Sets) + uint64(set)) << c.lineShift
}

// SetContents returns the line addresses currently valid in set, for
// analysis and tests (most-recently-used order is not implied).
func (c *Cache) SetContents(set int) []uint64 {
	var out []uint64
	for i := set * c.cfg.Ways; i < (set+1)*c.cfg.Ways; i++ {
		if c.stamps[i] != 0 {
			out = append(out, c.addrOf(set, c.tags[i]))
		}
	}
	return out
}

// touch records a use of way i: it stamps the way with the tick, and
// under TreePLRU also points the tree away from the way. It inlines to
// the stamp; the caller marks the set.
func (c *Cache) touch(i int) {
	c.stamps[i] = c.tick
	if c.plruBits != 0 {
		c.touchTree(i)
	}
}

// touchTree walks the tree of way i's set root→leaf and at each node
// sets the bit to point away from the way (true = victim side is right).
//
// The tree over a non-power-of-two way count is irregular (a left
// subtree of floor(n/2) leaves, a right subtree of the rest), so the
// bits use subtree-offset indexing — a subtree of n leaves owns n-1
// consecutive bits, root first — rather than complete-binary-heap
// indexing, which walks out of the array for such trees (left child of
// the root's right child is at heap index 5 of a 2-bit array for
// Ways=3). It is kept out of line so touch inlines.
//
//go:noinline
func (c *Cache) touchTree(i int) {
	set, way := i/c.cfg.Ways, i%c.cfg.Ways
	bits := c.treeBits(set)
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

// treeBits returns set's TreePLRU bits.
func (c *Cache) treeBits(set int) []bool {
	return c.plru[set*c.plruBits : (set+1)*c.plruBits]
}

// CheckReplacementState verifies the cache's replacement metadata: no set
// holds two valid lines with the same tag, every LRU timestamp is bounded
// by the access tick (timestamps are assigned from the monotone tick, so a
// larger value means corrupted state), and for TreePLRU the victim walk of
// every set stays inside the bit array and lands on a legal way — the
// property the heap-indexed walk violated for non-power-of-two way counts.
// It is a pure probe used by the invariant-checking harness.
func (c *Cache) CheckReplacementState() error {
	for s := 0; s < c.cfg.Sets; s++ {
		if err := c.checkSet(s); err != nil {
			return err
		}
	}
	return nil
}

// checkDirtySets is CheckReplacementState over the marked sets only, in
// the same ascending order, so it reports the same first violation as
// the full sweep whenever every unmarked set last checked clean.
func (c *Cache) checkDirtySets() error {
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
// ways, no allocation — and names the earliest matching way first.
func (c *Cache) checkSet(s int) error {
	base := s * c.cfg.Ways
	tags := c.tags[base : base+c.cfg.Ways]
	stamps := c.stamps[base : base+len(tags)]
	for w, use := range stamps {
		if use == 0 {
			continue
		}
		for prev := 0; prev < w; prev++ {
			if stamps[prev] != 0 && tags[prev] == tags[w] {
				return fmt.Errorf("cache %s: set %d ways %d and %d both hold tag %#x",
					c.cfg.Name, s, prev, w, tags[w])
			}
		}
		if use > c.tick {
			return fmt.Errorf("cache %s: set %d way %d lastUse %d ahead of tick %d",
				c.cfg.Name, s, w, use, c.tick)
		}
	}
	if c.cfg.Policy == TreePLRU {
		bits := c.treeBits(s)
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
func (c *Cache) CorruptLineTag(seed int64) bool {
	i := c.nthValidWay(seed)
	if i < 0 {
		return false
	}
	c.tags[i] ^= 1 << 40
	return true
}

// CorruptReplacementState corrupts replacement metadata for one set,
// chosen deterministically by seed. For LRU/Random a valid line's
// timestamp is pushed ahead of the access tick — illegal state that
// CheckReplacementState must flag. For TreePLRU one tree bit is flipped:
// the state stays structurally legal but the victim choice changes, a
// pure timing fault only a reference-run comparison can see. Returns
// false when there is nothing to corrupt yet.
func (c *Cache) CorruptReplacementState(seed int64) bool {
	if c.cfg.Policy == TreePLRU {
		set := int(uint64(seed) % uint64(c.cfg.Sets))
		bits := c.treeBits(set)
		bit := int(uint64(seed) >> 16 % uint64(len(bits)))
		bits[bit] = !bits[bit]
		c.mark(set)
		return true
	}
	i := c.nthValidWay(seed)
	if i < 0 {
		return false
	}
	c.stamps[i] = c.tick + 1_000_000
	return true
}

// nthValidWay returns the index of the seed-selected valid way, or -1 if
// none. The caller is about to corrupt it, so its set is marked.
func (c *Cache) nthValidWay(seed int64) int {
	valid := 0
	for _, use := range c.stamps {
		if use != 0 {
			valid++
		}
	}
	if valid == 0 {
		return -1
	}
	n := int(uint64(seed) % uint64(valid))
	for i, use := range c.stamps {
		if use != 0 {
			if n == 0 {
				c.mark(i / c.cfg.Ways)
				return i
			}
			n--
		}
	}
	return -1
}

// victimWay picks the way of a full set to evict under Random or
// TreePLRU; LRU's victim falls out of fill's pass.
func (c *Cache) victimWay(set int) int {
	if c.cfg.Policy == Random {
		c.drawn = true
		return c.rng.Intn(c.cfg.Ways)
	}
	// Follow the bits toward the pseudo-LRU leaf, mirroring touchTree's
	// subtree-offset indexing (the heap-indexed walk used previously read
	// past the bit array for non-power-of-two way counts and could never
	// select the last way as victim).
	bits := c.treeBits(set)
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
}
