package cache

import (
	"fmt"
	"math/bits"

	"pandora/internal/obs"
)

// HierConfig describes a two-level inclusive hierarchy with a flat memory
// latency behind L2.
type HierConfig struct {
	L1, L2     Config
	MemLatency int // cycles for an access that misses everywhere

	// PrefetchBuffer, when true, directs prefetch fills at a small buffer
	// in front of L1 instead of L1 itself (Section V-B3 of the paper).
	// Prefetches still fill L2 — which is exactly why the paper argues
	// prefetch buffers do not mitigate the DMP attack: the receiver just
	// monitors L2.
	PrefetchBuffer     bool
	PrefetchBufferSize int // entries; default 8

	// SelfCheck makes the hierarchy verify its structural invariants —
	// L2 ⊇ L1 inclusivity (prefetch-buffer entries included) and per-level
	// replacement-state sanity — after every mutating operation, through
	// the incremental CheckChanged. The first violation is latched and
	// reported by InvariantError; the pipeline's invariant harness polls
	// it and attaches the violating cycle. Off by default.
	SelfCheck bool
}

// DefaultHierConfig returns the configuration used by most experiments:
// 32-set 4-way 64B L1 (2-cycle hit), 256-set 8-way L2 (12-cycle hit),
// 100-cycle memory.
func DefaultHierConfig() HierConfig {
	return HierConfig{
		L1:         Config{Name: "L1D", Sets: 32, Ways: 4, LineSize: 64, HitLatency: 2, Policy: LRU},
		L2:         Config{Name: "L2", Sets: 256, Ways: 8, LineSize: 64, HitLatency: 12, Policy: LRU},
		MemLatency: 100,
	}
}

// AccessResult describes where a demand access was satisfied.
type AccessResult struct {
	Latency int
	L1Hit   bool
	L2Hit   bool
	// BufferHit reports the access was satisfied by the prefetch buffer.
	BufferHit bool
}

// Hierarchy is an inclusive two-level cache with prefetch support.
type Hierarchy struct {
	cfg HierConfig
	L1  *Cache
	L2  *Cache

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
func (h *Hierarchy) DemandAccesses() uint64 { return h.demandAccesses }

// PrefetchRequests returns the total prefetch requests.
func (h *Hierarchy) PrefetchRequests() uint64 { return h.prefetchRequests }

// SetProbe attaches an event probe to both levels (tracks L1/L2) and to
// the prefetch path. clock supplies the current simulated cycle.
func (h *Hierarchy) SetProbe(p obs.Probe, clock func() int64) {
	h.probe = p
	h.clock = clock
	h.L1.SetProbe(p, clock, obs.TrackL1)
	h.L2.SetProbe(p, clock, obs.TrackL2)
}

// RegisterMetrics registers both levels' counters plus the hierarchy's
// own under "l1.", "l2." and "hier.".
func (h *Hierarchy) RegisterMetrics(r *obs.Registry) {
	h.L1.RegisterMetrics(r, "l1")
	h.L2.RegisterMetrics(r, "l2")
	r.CounterUint64("hier.demand_accesses", &h.demandAccesses)
	r.CounterUint64("hier.prefetch_requests", &h.prefetchRequests)
}

// AccessListener observes every demand access made through the hierarchy.
// addr is the byte address; data is the value the access returned (loads)
// or wrote (stores); isWrite distinguishes the two. The IMP trains on
// loads: it needs both the value returned to the core and the addresses
// the core subsequently touches.
type AccessListener interface {
	OnAccess(addr uint64, data uint64, isWrite bool)
}

// NewHierarchy builds the hierarchy.
func NewHierarchy(cfg HierConfig) (*Hierarchy, error) {
	if cfg.MemLatency <= 0 {
		return nil, fmt.Errorf("cache: MemLatency must be positive, got %d", cfg.MemLatency)
	}
	if cfg.L1.LineSize != cfg.L2.LineSize {
		return nil, fmt.Errorf("cache: L1/L2 line sizes differ (%d vs %d)", cfg.L1.LineSize, cfg.L2.LineSize)
	}
	l1, err := New(cfg.L1)
	if err != nil {
		return nil, err
	}
	l2, err := New(cfg.L2)
	if err != nil {
		return nil, err
	}
	if cfg.PrefetchBuffer && cfg.PrefetchBufferSize == 0 {
		cfg.PrefetchBufferSize = 8
	}
	return &Hierarchy{cfg: cfg, L1: l1, L2: l2, incl: make([]uint64, len(l1.dirty))}, nil
}

// MustNewHierarchy is NewHierarchy that panics on config error.
func MustNewHierarchy(cfg HierConfig) *Hierarchy {
	h, err := NewHierarchy(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierConfig { return h.cfg }

// AddListener registers an access observer.
func (h *Hierarchy) AddListener(l AccessListener) {
	h.listeners = append(h.listeners, l)
}

// Access performs a demand access (timing only; data moves in package
// mem). data is the value read or written, forwarded to listeners so the
// IMP can train. Fills are inclusive: an L2 miss fills both levels.
func (h *Hierarchy) Access(addr uint64, data uint64, isWrite bool) AccessResult {
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
func (h *Hierarchy) AccessSilent(addr uint64) AccessResult {
	return h.accessTiming(addr)
}

func (h *Hierarchy) accessTiming(addr uint64) AccessResult {
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
func (h *Hierarchy) fillL2(addr uint64, prefetched bool) {
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
func (h *Hierarchy) fillL1(addr uint64) {
	h.L1.Fill(addr, false)
}

// Prefetch inserts the line holding addr as a prefetch. With a prefetch
// buffer configured, L1 is bypassed but L2 still fills.
func (h *Hierarchy) Prefetch(addr uint64) {
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
func (h *Hierarchy) Latency(addr uint64) int {
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
func (h *Hierarchy) CheckInclusive() error {
	for s := range h.L1.sets {
		if err := h.checkInclusiveSet(s); err != nil {
			return err
		}
	}
	return h.checkPrefetchBuffer()
}

// checkInclusiveSet verifies that every valid line of L1 set s is in L2.
func (h *Hierarchy) checkInclusiveSet(s int) error {
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
func (h *Hierarchy) checkPrefetchBuffer() error {
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
func (h *Hierarchy) CheckInvariants() error {
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
func (h *Hierarchy) CheckChanged() error {
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
func (h *Hierarchy) InvariantError() error { return h.invErr }

// selfCheck latches the first invariant violation, tagged with the
// operation that exposed it.
func (h *Hierarchy) selfCheck(op string, addr uint64) {
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
func (h *Hierarchy) CorruptL1Line(seed int64) bool {
	return h.L1.CorruptLineTag(seed)
}

// CorruptL1Replacement corrupts L1 replacement metadata (fault
// injection). Returns false when there is nothing to corrupt yet.
func (h *Hierarchy) CorruptL1Replacement(seed int64) bool {
	return h.L1.CorruptReplacementState(seed)
}

// EvictAll removes the line containing addr from every level.
func (h *Hierarchy) EvictAll(addr uint64) {
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
func (h *Hierarchy) FlushAll() {
	h.L1.FlushAll()
	h.L2.FlushAll()
	h.pbuf = nil
}
