package dmp

import (
	"fmt"

	"pandora/internal/cache"
	"pandora/internal/mem"
	"pandora/internal/taint"
)

// refStreamEntry tracks a candidate streaming (index) array.
type refStreamEntry struct {
	lastAddr  uint64
	stride    int64
	hits      int
	lastValue uint64
	valueSeen bool
	// recent holds the last few stream values: with an out-of-order core
	// the dependent indirection loads arrive interleaved across loop
	// iterations, so the detector must correlate a candidate indirection
	// address against several recent index values (the published IMP
	// keeps exactly such a table of recent index values).
	recent []uint64
}

// noteValue records a stream value in the recent ring.
func (s *refStreamEntry) noteValue(v uint64) {
	s.lastValue = v
	s.valueSeen = true
	s.recent = append(s.recent, v)
	if len(s.recent) > recentDepth {
		s.recent = s.recent[1:]
	}
}

// refIMP is the pointer-slice IMP the value ring replaced, kept verbatim
// as the reference FuzzIMPEquivalence checks the ring against.
type refIMP struct {
	cfg  Config
	hier *cache.Hierarchy
	mem  *mem.Memory

	// streams is a small FIFO table of candidate stream heads. A slice,
	// not a map: training must be deterministic, and Go map iteration
	// order is not.
	streams []*refStreamEntry
	// active is the stream currently driving indirection detection.
	active    *refStreamEntry
	elemWidth int // index element size inferred from stride

	// levels holds the indirection chain: levels[0] maps stream values to
	// the first dependent array, levels[1] maps its values onward, and so
	// on (cfg.Levels-1 entries).
	levels []indirect
	// recentOut[k] holds recent observed output values of levels[k]
	// (loaded at addresses its locked mapping explains), which train
	// levels[k+1]. Stream values (the chain's inputs) live on the stream
	// entry itself.
	recentOut [][]uint64

	Stats Stats

	// TraceFn, when set, receives a line per prefetcher action (used by
	// the Figure 1 narrative output).
	TraceFn func(format string, args ...any)

	// taintSt, when set (AttachTaint), reports prefetcher reads of
	// labeled bytes and prefetch addresses formed from labeled values —
	// the scanner's view of the universal read gadget.
	taintSt *taint.State
}

func newRefIMP(cfg Config, hier *cache.Hierarchy, m *mem.Memory) *refIMP {
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
	return &refIMP{
		cfg:       cfg,
		hier:      hier,
		mem:       m,
		levels:    make([]indirect, int(cfg.Levels)-1),
		recentOut: make([][]uint64, int(cfg.Levels)-1),
	}
}

func (p *refIMP) trace(format string, args ...any) {
	if p.TraceFn != nil {
		p.TraceFn(format, args...)
	}
}

// OnAccess implements cache.AccessListener. The IMP trains on demand
// loads only.
func (p *refIMP) OnAccess(addr uint64, data uint64, isWrite bool) {
	if isWrite {
		return
	}
	// 1. Stream detection: is this access the next element of a known
	// constant-stride stream?
	if p.active != nil {
		next := p.active.lastAddr + uint64(p.active.stride)
		if addr == next {
			p.active.lastAddr = addr
			p.active.hits++
			p.active.noteValue(data)
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
func (p *refIMP) trainStream(addr uint64, data uint64) bool {
	// Try to extend an existing tracked stream head (oldest first, so
	// established streams win ties deterministically).
	for _, s := range p.streams {
		if s.stride != 0 && addr == s.lastAddr+uint64(s.stride) {
			s.lastAddr = addr
			s.hits++
			s.noteValue(data)
			if s.hits >= p.cfg.StreamThreshold && p.active != s {
				p.active = s
				p.Stats.StreamsDetected++
				p.trace("imp: stream detected stride=%d at 0x%x", s.stride, addr)
			}
			if p.active == s {
				p.advanceStream(addr)
			}
			return true
		}
		if s.stride == 0 {
			d := int64(addr) - int64(s.lastAddr)
			if d != 0 && d >= -64 && d <= 64 {
				s.stride = d
				s.lastAddr = addr
				s.hits = 2
				s.noteValue(data)
				return true
			}
		}
	}
	// New candidate stream head; replace any stale head from the same
	// 256-byte neighborhood, else append (FIFO-bounded).
	ns := &refStreamEntry{lastAddr: addr, hits: 1}
	ns.noteValue(data)
	for i, s := range p.streams {
		if s.lastAddr>>8 == addr>>8 && s != p.active {
			p.streams[i] = ns
			return false
		}
	}
	p.streams = append(p.streams, ns)
	if len(p.streams) > 64 {
		// Evict the oldest non-active head.
		for i, s := range p.streams {
			if s != p.active {
				p.streams = append(p.streams[:i], p.streams[i+1:]...)
				break
			}
		}
	}
	return false
}

// trainIndirect walks the indirection chain: the first unconfirmed level
// trains against the previous level's recent output values; a confirmed
// level that explains addr records the observed output value (the next
// level's input) and infers the load width.
func (p *refIMP) trainIndirect(addr uint64, data uint64) {
	if p.active == nil || !p.active.valueSeen {
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
				p.train(lv, inputs, addr, counter, fmt.Sprintf("level-%d", k+1))
			}
			return
		}
		if p.matchesAny(lv, inputs, addr) {
			if k+1 < len(p.levels) {
				p.recentOut[k] = append(p.recentOut[k], data)
				if len(p.recentOut[k]) > recentDepth {
					p.recentOut[k] = p.recentOut[k][1:]
				}
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
func (p *refIMP) levelInputs(k int) []uint64 {
	if k == 0 {
		if p.active == nil {
			return nil
		}
		return p.active.recent
	}
	return p.recentOut[k-1]
}

func (p *refIMP) matchesAny(ind *indirect, vs []uint64, addr uint64) bool {
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

func (p *refIMP) train(ind *indirect, vs []uint64, addr uint64, counter *uint64, name string) {
	// Try to explain addr as base + v<<shift for any recent value v; a
	// (base, shift) hypothesis that stays consistent across observations
	// accumulates hits and is locked at the confirmation threshold.
	tried := map[indirectCandidate]bool{}
	for _, v := range vs {
		for s := uint(0); s <= uint(p.cfg.MaxShift); s++ {
			want := v << s
			if addr < want {
				continue
			}
			base := addr - want
			key := indirectCandidate{base: base, shift: s}
			if tried[key] {
				continue // one hit per observation per hypothesis
			}
			tried[key] = true
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
						p.trace("imp: %s indirection locked base=0x%x shift=%d", name, base, s)
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

// levelValueWidth returns the inferred width of level k's output values.
func (p *refIMP) levelValueWidth(k int) int {
	if k >= 0 && k < len(p.levels) {
		switch p.levels[k].valueWidth {
		case 1, 2, 4, 8:
			return p.levels[k].valueWidth
		}
	}
	return p.elemWidthOrDefault()
}

func (p *refIMP) elemWidthOrDefault() int {
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
func (p *refIMP) advanceStream(addr uint64) {
	if len(p.levels) == 0 || !p.levels[0].confirmed {
		return
	}
	stride := p.active.stride
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
	p.trace("imp: prefetch chain z=0x%x (=%d)", zAddr, v)

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
		p.trace("imp: prefetch chain level-%d value=%d -> addr 0x%x", k+1, v, a)
		if k+1 < len(p.levels) && p.levels[k+1].confirmed {
			v = p.mem.Read(a, p.levelValueWidth(k))
			vl = p.shadowRead(a, p.levelValueWidth(k))
		}
	}
}

// shadowRead returns the labels of the bytes a chain step reads, firing a
// leak event when they are labeled (the prefetcher read a secret).
func (p *refIMP) shadowRead(addr uint64, width int) taint.LabelSet {
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
func (p *refIMP) noteRead(addr uint64) {
	r, ok := p.mem.RegionOf(addr)
	if !ok {
		p.Stats.OutOfBoundsReads++
		return
	}
	if r.Protected {
		p.Stats.ProtectedReads++
	}
}

// LevelMapping returns the locked (base, shift) of indirection level k
// (0-based); ok is false before confirmation.
func (p *refIMP) LevelMapping(k int) (base uint64, shift uint, ok bool) {
	if k < 0 || k >= len(p.levels) || !p.levels[k].confirmed {
		return 0, 0, false
	}
	return p.levels[k].base, p.levels[k].shift, true
}

// Reset clears all training state (stream table, candidates, locks).
func (p *refIMP) Reset() {
	p.streams = nil
	p.active = nil
	p.levels = make([]indirect, int(p.cfg.Levels)-1)
	p.recentOut = make([][]uint64, int(p.cfg.Levels)-1)
	p.elemWidth = 0
}
