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

type line struct {
	valid      bool
	tag        uint64
	lastUse    uint64 // LRU timestamp
	prefetched bool   // filled by a prefetch, not yet demand-touched
}

// Cache is a single set-associative cache level.
type Cache struct {
	cfg   Config
	sets  [][]line
	plru  [][]bool   // tree bits per set, len ways-1 (TreePLRU)
	rng   *rand.Rand // Random policy only
	tick  uint64
	stats Stats

	probe obs.Probe
	clock func() int64
	track obs.Track

	lineShift uint
	setMask   uint64

	// dirty has bit s set when set s was mutated since the last passing
	// incremental check (Hierarchy.CheckChanged). Every path that writes
	// a line or replacement bit marks its set — touch, Evict, FlushAll,
	// nthValidLine and CorruptReplacementState — so a set whose bit is
	// clear is unchanged since it last checked clean.
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
// probe is attached.
func (c *Cache) emit(k obs.Kind, addr uint64, detail string) {
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
func New(cfg Config) (*Cache, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Cache{cfg: cfg}
	c.sets = make([][]line, cfg.Sets)
	for i := range c.sets {
		c.sets[i] = make([]line, cfg.Ways)
	}
	if cfg.Policy == TreePLRU {
		c.plru = make([][]bool, cfg.Sets)
		for i := range c.plru {
			c.plru[i] = make([]bool, maxInt(cfg.Ways-1, 1))
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
	c.setMask = uint64(cfg.Sets - 1)
	c.dirty = make([]uint64, (cfg.Sets+63)/64)
	return c, nil
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
	return addr >> c.lineShift / uint64(c.cfg.Sets)
}

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr >> c.lineShift << c.lineShift
}

// Contains reports whether the line holding addr is present. It does not
// update replacement state (a pure probe, for assertions and analysis, not
// a hardware operation).
func (c *Cache) Contains(addr uint64) bool {
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
func (c *Cache) Lookup(addr uint64) bool {
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
func (c *Cache) Fill(addr uint64, prefetched bool) (victim uint64, evicted bool) {
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
			c.sets[set][i] = line{valid: true, tag: tag, prefetched: prefetched}
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
	c.sets[set][w] = line{valid: true, tag: tag, prefetched: prefetched}
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
func (c *Cache) Evict(addr uint64) bool {
	set, tag := c.SetOf(addr), c.tagOf(addr)
	for i := range c.sets[set] {
		if c.sets[set][i].valid && c.sets[set][i].tag == tag {
			c.sets[set][i] = line{}
			c.mark(set)
			c.emit(obs.KindCacheEvict, c.LineAddr(addr), "invalidate")
			return true
		}
	}
	return false
}

// FlushAll invalidates every line.
func (c *Cache) FlushAll() {
	for s := range c.sets {
		for w := range c.sets[s] {
			c.sets[s][w] = line{}
		}
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
	for _, ln := range c.sets[set] {
		if ln.valid {
			out = append(out, c.addrOf(set, ln.tag))
		}
	}
	return out
}

func (c *Cache) touch(set, way int) {
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
func (c *Cache) CheckReplacementState() error {
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
// lines, no allocation — and names the earliest matching way first.
func (c *Cache) checkSet(s int) error {
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
func (c *Cache) CorruptLineTag(seed int64) bool {
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
func (c *Cache) CorruptReplacementState(seed int64) bool {
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
func (c *Cache) nthValidLine(seed int64) *line {
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

func (c *Cache) victimWay(set int) int {
	switch c.cfg.Policy {
	case Random:
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
