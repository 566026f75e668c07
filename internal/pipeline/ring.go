package pipeline

import (
	"math"
	"math/bits"
)

// The ROB is a power-of-two ring of µop pointers plus three multi-word
// scheduler bitsets indexed by physical slot: dispW (stage ==
// stDispatched), readyW (dispatched and both operands pass srcReady: the
// issue candidates) and execW (stage == stExecuting, the writeback
// candidates). Issue and complete iterate only the set bits of their
// mask, in program order, via bits.TrailingZeros64.
//
// readyW is event-driven. Each slot keeps a consumer mask (consW), filled
// at dispatch with the slots of µops still waiting on the occupant's
// result. A µop's ready bit is set at exactly three wake points:
//
//   - dispatch, when every operand is already available at the next
//     issue: no in-flight producer, a completed one, or a value-predicted
//     load (whose consumers may proceed one cycle after it dispatched);
//   - complete, when a producer reaches stDone: its consumer mask is
//     walked and each consumer whose operands now all pass srcReady wakes.
//     complete runs before issue, matching srcReady's doneC <= cycle rule;
//   - startExec of a fused ADDI, which wakes its load in the same cycle;
//     the load sits in the next slot, so the issue walk, which re-reads
//     each word as it goes, reaches it later in the same pass.
//
// A set bit stays set until the µop issues or leaves the ROB: once true,
// srcReady cannot turn false for a µop that is not squashed. Stuck µops
// (a dropped wakeup) and loads waiting on older unresolved stores stay in
// readyW and are skipped by the issue body, so fault draws keep their
// order. Config.LinearScheduler keeps the full-scan walk that re-tests
// srcReady for every dispatched µop as the reference implementation the
// equivalence tests diff against.
//
// Invariants (checked under Config.CheckInvariants): a slot's dispW/execW
// bits mirror its occupant's stage exactly, readyW is a subset of dispW,
// no bit is set outside the occupied window, and at the start of every
// issue a dispatched µop's readyW bit equals srcReady(0) && srcReady(1).
// The helpers below that change a slot — robPush, the pops through
// clearSched, markDispatched, markExecuting, schedToExec and execDone —
// are also the checkers' mark points (invariant.go): each sets the slot's
// bit in chk.dirty, which the ROB check revisits and the readiness check
// reads as a producer event. The mark is one unconditional OR, so every
// helper stays within the inlining budget.

// initROB sizes the ring and masks for the configured ROB capacity.
func (m *Machine) initROB() {
	size := 1
	for size < m.cfg.ROBSize {
		size <<= 1
	}
	m.robBuf = make([]*uop, size)
	// Every per-slot bitmap is carved from one slab: the three scheduler
	// masks, the consumer masks, and the checker's seven bitmaps and its
	// own consumer rows.
	words := (size + 63) / 64
	slab := make([]uint64, 10*words+2*size*words)
	next := func(n int) []uint64 {
		s := slab[:n:n]
		slab = slab[n:]
		return s
	}
	m.dispW, m.readyW, m.execW = next(words), next(words), next(words)
	m.consW = next(size * words)
	c := &m.chk
	c.dirty, c.win, c.wrong = next(words), next(words), next(words)
	c.events, c.seenDisp, c.seenReady, c.recheck = next(words), next(words), next(words), next(words)
	c.cons = next(size * words)
	c.restart()
	m.minDoneC = math.MaxInt64
}

// robLen returns the ROB occupancy.
func (m *Machine) robLen() int { return m.robN }

// robAt returns the i-th ROB entry in program order (0 = oldest).
func (m *Machine) robAt(i int) *uop {
	return m.robBuf[(m.robHead+i)&(len(m.robBuf)-1)]
}

// robPush appends u at the ROB tail and records its physical slot.
func (m *Machine) robPush(u *uop) {
	slot := (m.robHead + m.robN) & (len(m.robBuf) - 1)
	m.robBuf[slot] = u
	u.slot = slot
	m.robN++
	clear(m.consumers(slot))
	m.chk.dirty[slot>>6] |= 1 << (uint(slot) & 63)
}

// consumers returns the consumer mask of the µop in slot: the slots of
// µops that were waiting on its result when they dispatched.
func (m *Machine) consumers(slot int) []uint64 {
	n := len(m.dispW)
	return m.consW[slot*n : slot*n+n]
}

// robPopHead removes the oldest entry (retire).
func (m *Machine) robPopHead() {
	slot := m.robHead
	m.robBuf[slot] = nil
	m.clearSched(slot)
	m.robHead = (slot + 1) & (len(m.robBuf) - 1)
	m.robN--
}

// robPopTail removes and returns the youngest entry (squash).
func (m *Machine) robPopTail() *uop {
	m.robN--
	slot := (m.robHead + m.robN) & (len(m.robBuf) - 1)
	u := m.robBuf[slot]
	m.robBuf[slot] = nil
	m.clearSched(slot)
	return u
}

// markDispatched sets u's issue-wakeup bit (dispatch).
func (m *Machine) markDispatched(u *uop) {
	m.dispW[u.slot>>6] |= 1 << (uint(u.slot) & 63)
	m.chk.dirty[u.slot>>6] |= 1 << (uint(u.slot) & 63)
}

// markExecuting sets u's writeback bit without passing through dispW
// (HALT enters the ROB already "executing").
func (m *Machine) markExecuting(u *uop) {
	m.execW[u.slot>>6] |= 1 << (uint(u.slot) & 63)
	if u.doneC < m.minDoneC {
		m.minDoneC = u.doneC
	}
	m.chk.dirty[u.slot>>6] |= 1 << (uint(u.slot) & 63)
}

// subscribe is the dispatch wake point for a just-dispatched u: it joins
// the consumer mask of every producer that has not completed, and is
// marked ready if its operands are all available at the next issue.
func (m *Machine) subscribe(u *uop) {
	for _, p := range u.prod {
		if p != nil && (p.stage == stDispatched || p.stage == stExecuting) {
			m.consumers(p.slot)[u.slot>>6] |= 1 << (uint(u.slot) & 63)
		}
	}
	if u.srcReady(0, m.cycle+1) && u.srcReady(1, m.cycle+1) {
		m.readyW[u.slot>>6] |= 1 << (uint(u.slot) & 63)
	}
}

// wake is the completion wake point: p just reached stDone, so every
// still-dispatched consumer whose operands now all pass srcReady becomes
// an issue candidate. A consumer bit may be stale — the consumer issued
// early or its slot was squashed and refilled — so each occupant is
// re-tested rather than trusted.
func (m *Machine) wake(p *uop) {
	for wi, word := range m.consumers(p.slot) {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			m.wakeSlot(wi<<6 + b)
		}
	}
}

// wakeSlot marks the occupant of slot ready if it is dispatched and both
// of its operands pass srcReady this cycle.
func (m *Machine) wakeSlot(slot int) {
	v := m.robBuf[slot]
	if v != nil && v.stage == stDispatched && v.srcReady(0, m.cycle) && v.srcReady(1, m.cycle) {
		m.readyW[slot>>6] |= 1 << (uint(slot) & 63)
	}
}

// schedToExec moves u's bit from the wakeup masks to the writeback mask
// (issue).
func (m *Machine) schedToExec(u *uop) {
	w, b := u.slot>>6, uint(u.slot)&63
	m.dispW[w] &^= 1 << b
	m.readyW[w] &^= 1 << b
	m.execW[w] |= 1 << b
	if u.doneC < m.minDoneC {
		m.minDoneC = u.doneC
	}
	m.chk.dirty[w] |= 1 << b
}

// execDone clears u's writeback bit (completion).
func (m *Machine) execDone(u *uop) {
	m.execW[u.slot>>6] &^= 1 << (uint(u.slot) & 63)
	m.chk.dirty[u.slot>>6] |= 1 << (uint(u.slot) & 63)
}

// clearSched clears every mask bit for a vacated slot.
func (m *Machine) clearSched(slot int) {
	w, b := slot>>6, uint(slot)&63
	m.dispW[w] &^= 1 << b
	m.readyW[w] &^= 1 << b
	m.execW[w] &^= 1 << b
	m.chk.dirty[w] |= 1 << b
}

// gatherMasked appends, in program order, every ROB occupant whose slot
// bit is set in w. The occupied window [head, head+n) is at most two
// contiguous slot ranges (one wrap).
func (m *Machine) gatherMasked(w []uint64, out []*uop) []*uop {
	if m.robN == 0 {
		return out
	}
	size := len(m.robBuf)
	end := m.robHead + m.robN
	if end <= size {
		return m.gatherRange(w, m.robHead, end, out)
	}
	out = m.gatherRange(w, m.robHead, size, out)
	return m.gatherRange(w, 0, end-size, out)
}

// gatherRange scans slots [lo, hi) word by word, trimming the first and
// last word to the range, and appends the occupants of set bits in
// ascending slot order.
func (m *Machine) gatherRange(w []uint64, lo, hi int, out []*uop) []*uop {
	for wi := lo >> 6; wi<<6 < hi; wi++ {
		word := w[wi]
		if word == 0 {
			continue
		}
		base := wi << 6
		if base < lo {
			word &= ^uint64(0) << uint(lo-base)
		}
		if base+64 > hi {
			word &= ^uint64(0) >> uint(base+64-hi)
		}
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			out = append(out, m.robBuf[base+b])
		}
	}
	return out
}

// issueReady offers every readyW candidate to issueOne in program order.
// The occupied window [head, head+n) is at most two contiguous slot
// ranges (one wrap).
func (m *Machine) issueReady(ps *issuePass) {
	if m.robN == 0 {
		return
	}
	size := len(m.robBuf)
	end := m.robHead + m.robN
	if end <= size {
		m.issueRange(m.robHead, end, ps)
		return
	}
	m.issueRange(m.robHead, size, ps)
	m.issueRange(0, end-size, ps)
}

// issueRange walks readyW over slots [lo, hi) in ascending order. Each
// word is re-read after every candidate, so a bit set during the pass —
// the fused load a just-issued ADDI woke — is still visited, while the
// bits already passed are masked off.
func (m *Machine) issueRange(lo, hi int, ps *issuePass) {
	for wi := lo >> 6; wi<<6 < hi; wi++ {
		base := wi << 6
		todo := ^uint64(0)
		if base < lo {
			todo <<= uint(lo - base)
		}
		if base+64 > hi {
			todo &= ^uint64(0) >> uint(base+64-hi)
		}
		for {
			word := m.readyW[wi] & todo
			if word == 0 {
				break
			}
			b := bits.TrailingZeros64(word)
			todo &^= 2<<uint(b) - 1 // bits 0..b
			m.issueOne(m.robBuf[base+b], ps)
		}
	}
}

// issueLinear is the reference issue walk (Config.LinearScheduler): every
// dispatched µop, in program order, re-tested through srcReady.
func (m *Machine) issueLinear(ps *issuePass) {
	cands := m.gatherStage(stDispatched, m.issueScratch[:0])
	m.issueScratch = cands
	for _, u := range cands {
		if u.srcReady(0, m.cycle) && u.srcReady(1, m.cycle) {
			m.issueOne(u, ps)
		}
	}
}

// gatherStage is the reference candidate gatherer (Config.LinearScheduler):
// a full program-order scan testing every occupant's stage, exactly the
// walk the bitset path replaced. The downstream issue/complete bodies are
// shared, so diffing the two schedulers isolates the mask bookkeeping.
func (m *Machine) gatherStage(stage uopStage, out []*uop) []*uop {
	for i := 0; i < m.robN; i++ {
		u := m.robAt(i)
		if u.stage == stage {
			out = append(out, u)
		}
	}
	return out
}
