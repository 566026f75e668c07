// Package dmp implements data memory-dependent prefetchers (Section IV-D2
// of the paper): the indirect-memory prefetcher (IMP) of Yu et al.
// [MICRO'15], in its 2-level (Y[Z[i]]) and 3-level (X[Y[Z[i]]]) variants,
// plus a conventional stride prefetcher as the security baseline.
//
// The IMP is the paper's motivating example: it reads *data memory
// contents* directly to compute prefetch addresses, so its cache fills are
// a transmitter for data at rest — forming a universal read gadget in the
// sandbox setting (Figure 1). The prefetcher deliberately has no notion of
// array bounds or protection domains; that is precisely the vulnerability.
package dmp

import (
	"fmt"

	"pandora/internal/cache"
	"pandora/internal/mem"
	"pandora/internal/taint"
)

// Levels selects the indirection depth the IMP prefetches through.
type Levels int

const (
	// TwoLevel detects Y[Z[i]] and prefetches Y[Z[i+Δ]].
	TwoLevel Levels = 2
	// ThreeLevel detects X[Y[Z[i]]] and prefetches X[Y[Z[i+Δ]]] (the
	// paper's universal-read-gadget variant, Yu et al.).
	ThreeLevel Levels = 3
	// FourLevel detects W[X[Y[Z[i]]]] — the pattern of Ainsworth & Jones
	// [ICS'16], which the paper notes is "similar" and equally unsafe.
	FourLevel Levels = 4
)

// Config parameterizes the IMP.
type Config struct {
	Levels Levels
	// Delta is the prefetch distance (the paper's Δ, default 4).
	Delta int
	// MaxShift bounds the index-scaling shifts tried when solving
	// addr = base + (value << shift); default 3 (up to 8-byte elements).
	MaxShift int
	// ConfirmThreshold is how many consistent (value, address) pairs are
	// required before a candidate (base, shift) is locked in; default 2.
	ConfirmThreshold int
	// StreamThreshold is how many constant-stride accesses to the index
	// array are required before streaming is recognized; default 3.
	StreamThreshold int
}

// DefaultConfig returns the configuration used in the experiments.
func DefaultConfig(levels Levels) Config {
	return Config{Levels: levels, Delta: 4, MaxShift: 3, ConfirmThreshold: 2, StreamThreshold: 3}
}

// Stats counts prefetcher activity.
type Stats struct {
	StreamsDetected   uint64
	IndirectConfirmed uint64 // level-1 indirections locked
	Level2Confirmed   uint64 // second indirections locked (3-level only)
	Prefetches        uint64 // prefetch chains launched
	LinesFetched      uint64 // cache lines touched by prefetch chains
	OutOfBoundsReads  uint64 // prefetcher data reads outside every region (diagnostic)
	ProtectedReads    uint64 // prefetcher data reads inside Protected regions (diagnostic)
}

// Merge folds o's counts into s — the supported way for callers (e.g. the
// parallel URG sweep) to aggregate per-clone prefetcher stats without
// writing this package's fields one by one.
func (s *Stats) Merge(o Stats) {
	s.StreamsDetected += o.StreamsDetected
	s.IndirectConfirmed += o.IndirectConfirmed
	s.Level2Confirmed += o.Level2Confirmed
	s.Prefetches += o.Prefetches
	s.LinesFetched += o.LinesFetched
	s.OutOfBoundsReads += o.OutOfBoundsReads
	s.ProtectedReads += o.ProtectedReads
}

// streamEntry tracks a candidate streaming (index) array.
type streamEntry struct {
	lastAddr uint64
	stride   int64
	hits     int
	// recent holds the last few stream values: with an out-of-order core
	// the dependent indirection loads arrive interleaved across loop
	// iterations, so the detector must correlate a candidate indirection
	// address against several recent index values (the published IMP
	// keeps exactly such a table of recent index values).
	recent recentValues
}

// recentDepth bounds the recent-value rings.
const recentDepth = 4

// recentValues holds the last recentDepth values seen, oldest first.
type recentValues struct {
	v [recentDepth]uint64
	n int
}

// push records v, dropping the oldest value once recentDepth are held.
func (r *recentValues) push(v uint64) {
	if r.n < recentDepth {
		r.v[r.n] = v
		r.n++
		return
	}
	copy(r.v[:], r.v[1:])
	r.v[recentDepth-1] = v
}

// values returns the held values, oldest first.
func (r *recentValues) values() []uint64 { return r.v[:r.n] }

// Stream-table geometry. The table tracks tableSize heads; a new head
// is appended before the eviction that restores that bound, so the ring
// holds one entry more.
const (
	tableSize = 64
	ringSize  = tableSize + 1
	// nearBits sizes the neighbourhood filter: 1<<nearBits counters over
	// hashed 256-byte blocks of the heads' lastAddr.
	nearBits = 10
	// noStream is IMP.active when no stream is active.
	noStream = -1
)

// nearSlot returns the filter counter for the 256-byte block holding
// addr (a multiplicative hash, so set-strided sweeps spread out).
func nearSlot(addr uint64) int {
	return int((addr >> 8) * 0x9e3779b97f4a7c15 >> (64 - nearBits))
}

// indirectCandidate is an un-confirmed hypothesis addr = base + v<<shift.
type indirectCandidate struct {
	base  uint64
	shift uint
	hits  int
}

// indirect tracks one indirection level once locked. valueWidth is the
// width of the values the core loads at this level's addresses (inferred
// at training time), which the prefetcher needs when it chases the
// indirection itself.
type indirect struct {
	confirmed  bool
	base       uint64
	shift      uint
	valueWidth int
	cands      []indirectCandidate
}

// IMP is the indirect-memory prefetcher. It observes demand accesses via
// the cache.AccessListener interface, reads data memory directly to chase
// indirections, and issues prefetches into the hierarchy.
//
// Detection follows the published design: a stream table finds the
// constant-stride index array Z; when the core subsequently issues a load,
// the prefetcher checks whether its address is explained by
// base + (lastIndexValue << shift) and, after ConfirmThreshold consistent
// observations, locks the indirection and begins prefetching
// Y[Z[i+Δ]] (and X[Y[Z[i+Δ]]] for the 3-level variant) on every further
// stream advance.
type IMP struct {
	cfg  Config
	hier *cache.Hierarchy
	mem  *mem.Memory

	// ring is the FIFO stream table, by value: n entries, oldest at
	// ring[head], the rest in age order at the following slots (mod
	// ringSize). A ring, not a map: training must be deterministic, and
	// Go map iteration order is not.
	ring    [ringSize]streamEntry
	head, n int
	// near[nearSlot(a)] counts the entries whose lastAddr's 256-byte
	// block hashes to the same counter as a's. setLastAddr, push (which
	// also evicts) and Reset keep it exact; a replaced entry stays in
	// its block (see trainStream).
	near [1 << nearBits]uint8
	// active is the ring slot of the stream driving indirection
	// detection, or noStream.
	active    int
	elemWidth int // index element size inferred from stride

	// levels holds the indirection chain: levels[0] maps stream values to
	// the first dependent array, levels[1] maps its values onward, and so
	// on (cfg.Levels-1 entries).
	levels []indirect
	// recentOut[k] holds recent observed output values of levels[k]
	// (loaded at addresses its locked mapping explains), which train
	// levels[k+1]. Stream values (the chain's inputs) live on the stream
	// entry itself.
	recentOut []recentValues

	Stats Stats

	// TraceFn, when set, receives a line per prefetcher action (used by
	// the Figure 1 narrative output).
	TraceFn func(format string, args ...any)

	// taintSt, when set (AttachTaint), reports prefetcher reads of
	// labeled bytes and prefetch addresses formed from labeled values —
	// the scanner's view of the universal read gadget.
	taintSt *taint.State
}

var _ cache.AccessListener = (*IMP)(nil)

// AttachTaint connects the prefetcher to the secret-label shadow: every
// chain step checks the shadow of the bytes it reads and of the values it
// turns into prefetch addresses, firing OptPrefetcher leak events.
func (p *IMP) AttachTaint(st *taint.State) { p.taintSt = st }

// New creates an IMP attached to the hierarchy and data memory. Callers
// must also register it: hier.AddListener(imp).
func New(cfg Config, hier *cache.Hierarchy, m *mem.Memory) *IMP {
	if cfg.Delta <= 0 {
		cfg.Delta = 4
	}
	if cfg.MaxShift <= 0 {
		cfg.MaxShift = 3
	}
	if cfg.ConfirmThreshold <= 0 {
		cfg.ConfirmThreshold = 2
	}
	if cfg.StreamThreshold <= 0 {
		cfg.StreamThreshold = 3
	}
	if cfg.Levels < TwoLevel || cfg.Levels > FourLevel {
		cfg.Levels = ThreeLevel
	}
	return &IMP{
		cfg:       cfg,
		hier:      hier,
		mem:       m,
		active:    noStream,
		levels:    make([]indirect, int(cfg.Levels)-1),
		recentOut: make([]recentValues, int(cfg.Levels)-1),
	}
}

// Config returns the prefetcher configuration.
func (p *IMP) Config() Config { return p.cfg }

// slot returns the ring slot of the entry of age k (0 is the oldest).
func (p *IMP) slot(k int) int {
	if i := p.head + k; i < ringSize {
		return i
	}
	return p.head + k - ringSize
}

// setLastAddr moves s's head to addr, keeping the filter exact.
func (p *IMP) setLastAddr(s *streamEntry, addr uint64) {
	if s.lastAddr>>8 != addr>>8 {
		p.near[nearSlot(s.lastAddr)]--
		p.near[nearSlot(addr)]++
	}
	s.lastAddr = addr
}

// OnAccess implements cache.AccessListener. The IMP trains on demand
// loads only.
func (p *IMP) OnAccess(addr uint64, data uint64, isWrite bool) {
	if isWrite {
		return
	}
	// 1. Stream detection: is this access the next element of a known
	// constant-stride stream?
	if p.active != noStream {
		s := &p.ring[p.active]
		if addr == s.lastAddr+uint64(s.stride) {
			p.setLastAddr(s, addr)
			s.hits++
			s.recent.push(data)
			p.advanceStream(addr)
			return
		}
	}
	if p.trainStream(addr, data) {
		return
	}
	// 2. Not a stream access: candidate indirection. The value most
	// recently returned by the stream is the candidate index.
	p.trainIndirect(addr, data)
}

// trainStream updates the stream table; returns true if the access
// belongs to a (possibly newly promoted) stream.
//
// One pass, oldest first (so established streams win ties
// deterministically), tries to extend a tracked head, and otherwise
// remembers the first non-active head from addr's 256-byte block for the
// new head to replace. An entry can only match if its lastAddr lies
// within 64 bytes of addr (strides and first steps are bounded by 64) or
// in addr's block, so its lastAddr's block is that of addr-64, addr or
// addr+64. When the filter counts none in those blocks, the pass would
// find nothing and is skipped.
func (p *IMP) trainStream(addr uint64, data uint64) bool {
	if p.near[nearSlot(addr-64)] != 0 || p.near[nearSlot(addr)] != 0 || p.near[nearSlot(addr+64)] != 0 {
		repl := noStream
		for k, i := 0, p.head; k < p.n; k++ {
			s := &p.ring[i]
			if s.stride != 0 {
				if addr == s.lastAddr+uint64(s.stride) {
					p.setLastAddr(s, addr)
					s.hits++
					s.recent.push(data)
					if s.hits >= p.cfg.StreamThreshold && p.active != i {
						p.active = i
						p.Stats.StreamsDetected++
						if p.TraceFn != nil {
							p.TraceFn("imp: stream detected stride=%d at 0x%x", s.stride, addr)
						}
					}
					if p.active == i {
						p.advanceStream(addr)
					}
					return true
				}
			} else if d := int64(addr) - int64(s.lastAddr); d != 0 && d >= -64 && d <= 64 {
				s.stride = d
				p.setLastAddr(s, addr)
				s.hits = 2
				s.recent.push(data)
				return true
			}
			if repl == noStream && s.lastAddr>>8 == addr>>8 && i != p.active {
				repl = i
			}
			if i++; i == ringSize {
				i = 0
			}
		}
		if repl != noStream {
			// Same block, so the filter's counts stand.
			p.ring[repl] = streamEntry{lastAddr: addr, hits: 1}
			p.ring[repl].recent.push(data)
			return false
		}
	}
	p.push(addr, data)
	return false
}

// push appends a new candidate head and, when that overfills the table,
// evicts the oldest non-active head: age 0, or age 1 when age 0 is the
// active stream, which then moves into age 1's slot.
func (p *IMP) push(addr, data uint64) {
	i := p.slot(p.n)
	p.ring[i] = streamEntry{lastAddr: addr, hits: 1}
	p.ring[i].recent.push(data)
	p.near[nearSlot(addr)]++
	if p.n++; p.n <= tableSize {
		return
	}
	next := p.slot(1)
	if p.head == p.active {
		p.near[nearSlot(p.ring[next].lastAddr)]--
		p.ring[next] = p.ring[p.head]
		p.active = next
	} else {
		p.near[nearSlot(p.ring[p.head].lastAddr)]--
	}
	p.head = next
	p.n--
}

// trainIndirect walks the indirection chain: the first unconfirmed level
// trains against the previous level's recent output values; a confirmed
// level that explains addr records the observed output value (the next
// level's input) and infers the load width.
func (p *IMP) trainIndirect(addr uint64, data uint64) {
	if p.active == noStream || p.ring[p.active].recent.n == 0 {
		return
	}
	for k := range p.levels {
		lv := &p.levels[k]
		inputs := p.levelInputs(k)
		if !lv.confirmed {
			if len(inputs) > 0 {
				counter := &p.Stats.IndirectConfirmed
				if k > 0 {
					counter = &p.Stats.Level2Confirmed
				}
				p.train(lv, inputs, addr, counter, k+1)
			}
			return
		}
		if p.matchesAny(lv, inputs, addr) {
			if k+1 < len(p.levels) {
				p.recentOut[k].push(data)
			}
			if lv.valueWidth == 0 {
				lv.valueWidth = inferWidth(p.mem, addr, data)
			}
			return
		}
	}
}

// levelInputs returns the recent input values feeding level k: the stream
// values for level 0, the previous level's observed outputs otherwise.
func (p *IMP) levelInputs(k int) []uint64 {
	if k == 0 {
		if p.active == noStream {
			return nil
		}
		return p.ring[p.active].recent.values()
	}
	return p.recentOut[k-1].values()
}

// inferWidth returns the smallest access width whose little-endian read
// at addr reproduces the observed value.
func inferWidth(m *mem.Memory, addr, data uint64) int {
	for _, w := range []int{1, 2, 4, 8} {
		if m.Read(addr, w) == data {
			return w
		}
	}
	return 4
}

func (p *IMP) matchesAny(ind *indirect, vs []uint64, addr uint64) bool {
	if !ind.confirmed {
		return false
	}
	for _, v := range vs {
		if ind.base+(v<<ind.shift) == addr {
			return true
		}
	}
	return false
}

// train trains the indirection at chain level (1-based) on addr.
func (p *IMP) train(ind *indirect, vs []uint64, addr uint64, counter *uint64, level int) {
	// Try to explain addr as base + v<<shift for any recent value v; a
	// (base, shift) hypothesis that stays consistent across observations
	// accumulates hits and is locked at the confirmation threshold.
	for j, v := range vs {
		for s := uint(0); s <= uint(p.cfg.MaxShift); s++ {
			want := v << s
			if addr < want || shiftedBefore(vs[:j], s, want) {
				continue // one hit per observation per hypothesis
			}
			base := addr - want
			found := false
			for i := range ind.cands {
				c := &ind.cands[i]
				if c.base == base && c.shift == s {
					c.hits++
					found = true
					if c.hits >= p.cfg.ConfirmThreshold {
						ind.confirmed = true
						ind.base = base
						ind.shift = s
						ind.cands = nil
						*counter++
						if p.TraceFn != nil {
							p.TraceFn("imp: level-%d indirection locked base=0x%x shift=%d", level, base, s)
						}
						return
					}
				}
			}
			if !found {
				ind.cands = append(ind.cands, indirectCandidate{base: base, shift: s, hits: 1})
			}
		}
	}
	// Bound candidate list.
	if len(ind.cands) > 1024 {
		ind.cands = ind.cands[len(ind.cands)-512:]
	}
}

// shiftedBefore reports whether some value in vs, shifted by s, equals
// want: the (base, shift) hypothesis was already tried this observation.
func shiftedBefore(vs []uint64, s uint, want uint64) bool {
	for _, v := range vs {
		if v<<s == want {
			return true
		}
	}
	return false
}

// levelValueWidth returns the inferred width of level k's output values.
func (p *IMP) levelValueWidth(k int) int {
	if k >= 0 && k < len(p.levels) {
		switch p.levels[k].valueWidth {
		case 1, 2, 4, 8:
			return p.levels[k].valueWidth
		}
	}
	return p.elemWidthOrDefault()
}

func (p *IMP) elemWidthOrDefault() int {
	switch p.elemWidth {
	case 1, 2, 4, 8:
		return p.elemWidth
	}
	return 4
}

// advanceStream fires the prefetch chain for the element Δ ahead of the
// current stream position. This is the operation described by the MLD of
// Figure 3, Example 9: the prefetcher itself makes cache accesses for
// Z[i+Δ], then Y[Z[i+Δ]], then (3-level) X[Y[Z[i+Δ]]] — reading data
// memory directly for the intermediate values, with no bounds awareness.
func (p *IMP) advanceStream(addr uint64) {
	if len(p.levels) == 0 || !p.levels[0].confirmed {
		return
	}
	stride := p.ring[p.active].stride
	if stride == 0 {
		return
	}
	if p.elemWidth == 0 {
		w := stride
		if w < 0 {
			w = -w
		}
		switch w {
		case 1, 2, 4, 8:
			p.elemWidth = int(w)
		default:
			p.elemWidth = 4
		}
	}
	p.Stats.Prefetches++

	// Index element: Z[i+Δ].
	zAddr := addr + uint64(stride*int64(p.cfg.Delta))
	p.hier.Prefetch(zAddr)
	p.Stats.LinesFetched++
	p.noteRead(zAddr)
	v := p.mem.Read(zAddr, p.elemWidthOrDefault())
	vl := p.shadowRead(zAddr, p.elemWidthOrDefault())
	if p.TraceFn != nil {
		p.TraceFn("imp: prefetch chain z=0x%x (=%d)", zAddr, v)
	}

	// Chase the chain through every confirmed indirection level, reading
	// data memory directly for each intermediate value — with no bounds
	// awareness at any step.
	for k := range p.levels {
		lv := &p.levels[k]
		if !lv.confirmed {
			break
		}
		a := lv.base + (v << lv.shift)
		if st := p.taintSt; st != nil && vl.Any() {
			// The prefetch address is a function of a labeled value: the
			// resulting cache fill transmits that value (Figure 1).
			st.ObservePrefetch(a, "prefetch address derives from labeled data", vl)
		}
		p.hier.Prefetch(a)
		p.Stats.LinesFetched++
		p.noteRead(a)
		if p.TraceFn != nil {
			p.TraceFn("imp: prefetch chain level-%d value=%d -> addr 0x%x", k+1, v, a)
		}
		if k+1 < len(p.levels) && p.levels[k+1].confirmed {
			v = p.mem.Read(a, p.levelValueWidth(k))
			vl = p.shadowRead(a, p.levelValueWidth(k))
		}
	}
}

// shadowRead returns the labels of the bytes a chain step reads, firing a
// leak event when they are labeled (the prefetcher read a secret).
func (p *IMP) shadowRead(addr uint64, width int) taint.LabelSet {
	st := p.taintSt
	if st == nil {
		return 0
	}
	l := st.Mem.Read(addr, width)
	if l.Any() {
		st.ObservePrefetch(addr, "prefetcher read labeled bytes", l)
	}
	return l
}

// noteRead updates the diagnostic counters classifying where the
// prefetcher's own data reads land. These counters exist purely for the
// experiment reports; hardware has no such awareness.
func (p *IMP) noteRead(addr uint64) {
	r, ok := p.mem.RegionOf(addr)
	if !ok {
		p.Stats.OutOfBoundsReads++
		return
	}
	if r.Protected {
		p.Stats.ProtectedReads++
	}
}

// ConfirmedDepth returns how many indirection levels are locked.
func (p *IMP) ConfirmedDepth() int {
	n := 0
	for _, lv := range p.levels {
		if lv.confirmed {
			n++
		} else {
			break
		}
	}
	return n
}

// Confirmed reports whether the first and second indirection levels are
// locked (convenience for the 2-/3-level experiments).
func (p *IMP) Confirmed() (lvl1, lvl2 bool) {
	d := p.ConfirmedDepth()
	return d >= 1, d >= 2
}

// LevelMapping returns the locked (base, shift) of indirection level k
// (0-based); ok is false before confirmation.
func (p *IMP) LevelMapping(k int) (base uint64, shift uint, ok bool) {
	if k < 0 || k >= len(p.levels) || !p.levels[k].confirmed {
		return 0, 0, false
	}
	return p.levels[k].base, p.levels[k].shift, true
}

// Lvl1Mapping returns the locked level-1 (base, shift).
func (p *IMP) Lvl1Mapping() (base uint64, shift uint, ok bool) { return p.LevelMapping(0) }

// Lvl2Mapping returns the locked level-2 (base, shift).
func (p *IMP) Lvl2Mapping() (base uint64, shift uint, ok bool) { return p.LevelMapping(1) }

// Reset clears all training state (stream table, candidates, locks) in
// place.
func (p *IMP) Reset() {
	clear(p.ring[:])
	p.head, p.n = 0, 0
	clear(p.near[:])
	p.active = noStream
	p.elemWidth = 0
	for k := range p.levels {
		p.levels[k] = indirect{cands: p.levels[k].cands[:0]}
	}
	clear(p.recentOut)
}

func (p *IMP) String() string {
	return fmt.Sprintf("IMP(levels=%d Δ=%d)", p.cfg.Levels, p.cfg.Delta)
}
