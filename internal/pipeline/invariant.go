package pipeline

import (
	"errors"
	"fmt"
	"math/bits"

	"pandora/internal/isa"
)

// This file holds the per-cycle structural self-checks enabled by
// Config.CheckInvariants. Every violation is reported through m.fail, so
// the error carries the cycle on which the structure first went wrong —
// the property the differential harness (internal/diffcheck) relies on to
// localize a bug, since an end-of-run state diff only says *that* the
// machines diverged, not *when*.
//
// Both scheduler checks cost what changed, like the cache hierarchy's
// CheckChanged. The ring helpers (ring.go) mark every slot whose
// occupant, stage or scheduler bits they change. checkInvariants re-runs
// the per-slot ROB body on the marked slots only, in ROB order, and keeps
// the in-window and wrong-path counts as running totals. checkReady
// treats each marked slot as a producer event — dispatch, issue,
// completion, vacate — and re-tests only the dispatched µops in marked
// slots, those that named a marked slot's occupant as a producer at
// rename, and those whose readyW or dispW bit changed. Skipping the rest
// is sound because a slot's verdict depends only on what a mark records
// (DESIGN.md §9). Every slot is visited on the first checked cycle of a
// Run and whenever the outstanding mispredicted branch changes, since
// the speculation verdict of every occupant depends on it.

// invChecker is the incremental checkers' own state, sized with the ROB
// (initROB).
type invChecker struct {
	// dirty marks ROB slots changed since checkInvariants last passed.
	// The helpers mark it unconditionally: one OR is cheaper than a
	// Config.CheckInvariants test, which would push them past the
	// compiler's inlining budget.
	dirty []uint64
	// win and wrong record, per slot, whether the checker last saw a
	// dispatched-or-executing and a wrong-path occupant there; their
	// popcounts are the running in-window and wrong-path totals.
	win, wrong []uint64
	// walkAll makes the next ROB check visit every slot. specBr and
	// specSeq are the outstanding mispredicted branch it last passed
	// under: a change re-walks (the pointer alone may be recycled).
	walkAll bool
	specBr  *uop
	specSeq uint64

	// events holds the marks checkInvariants cleared since checkReady
	// last passed; checkReady's producer events are events | dirty.
	// seenDisp and seenReady are dispW and readyW as that pass left them,
	// so any other bit change is re-tested too. recheck is its scratch.
	events, seenDisp, seenReady, recheck []uint64
	// sweepAll makes the next readiness check test every dispatched µop.
	sweepAll bool
	// cons holds one row per slot: the slots of µops that named the
	// occupant as a producer at rename, filled from u.prod under
	// Config.CheckInvariants — not from subscribe's consW, the mechanism
	// checkReady verifies.
	cons []uint64

	// cross, set only by tests, also runs the full ROB walk and readiness
	// sweep every cycle and fails the machine with errCrossCheck unless
	// both report the same violation or none.
	cross bool
}

// errCrossCheck marks a cycle on which an incremental check and its full
// counterpart disagreed.
var errCrossCheck = errors.New("invariant cross-check: incremental and full checks disagree")

// bit returns the word index and mask of slot in a per-slot bitmap.
func bit(slot int) (int, uint64) { return slot >> 6, 1 << (uint(slot) & 63) }

// rename records u's rename-time producers: its consumer row starts
// empty, and it joins the row of each producer still in flight. Clearing
// the row is safe: a slot is refilled only at dispatch, after that
// cycle's readiness check has read the vacated occupant's events.
func (c *invChecker) rename(u *uop) {
	n := len(c.recheck)
	w, b := bit(u.slot)
	clear(c.cons[u.slot*n : u.slot*n+n])
	for _, p := range u.prod {
		if p != nil && p.stage != stRetired {
			c.cons[p.slot*n+w] |= b
		}
	}
}

// restart makes the next checks visit everything (Run start: the ROB was
// reclaimed wholesale).
func (c *invChecker) restart() {
	c.walkAll = true
	c.sweepAll = true
}

// checkInvariants runs once per cycle, after every stage has ticked.
func (m *Machine) checkInvariants() {
	if m.err != nil {
		return
	}
	err := m.robErr()
	if m.chk.cross && !m.agree(err, m.robErrFull()) {
		return
	}
	if err != nil {
		m.fail("%v", err)
		return
	}

	// Cache hierarchy: inclusivity and replacement-state sanity over the
	// sets changed since the last passing check (Run closes with a full
	// sweep). A latched SelfCheck violation names the operation that
	// exposed it; otherwise probe directly.
	if err := m.hier.InvariantError(); err != nil {
		m.fail("invariant: %v", err)
		return
	}
	if err := m.hier.CheckChanged(); err != nil {
		m.fail("invariant: %v", err)
	}
}

// agree is the cross-check: it fails the machine with errCrossCheck
// unless the incremental and the full check returned the same error text
// or both none.
func (m *Machine) agree(incr, full error) bool {
	if fmt.Sprint(incr) == fmt.Sprint(full) {
		return true
	}
	m.err = fmt.Errorf("pipeline: cycle %d: %w: incremental %v, full %v", m.cycle, errCrossCheck, incr, full)
	return false
}

// robErr is the incremental ROB check: the per-slot body on the marked
// in-window slots in ROB order, plus the order check of each one's
// unmarked younger neighbour, then the checks robTallyErr shares with
// the full walk. It clears the marks only on a pass.
func (m *Machine) robErr() error {
	c := &m.chk
	sb := m.specBranch
	if c.walkAll || sb != c.specBr || (sb != nil && sb.seq != c.specSeq) {
		for w := range c.dirty {
			c.dirty[w] = ^uint64(0)
		}
		if size := len(m.robBuf); size < 64 { // a power of two
			c.dirty[0] = 1<<uint(size) - 1
		}
	}
	for w, d := range c.dirty {
		c.win[w] &^= d
		c.wrong[w] &^= d
	}
	specBad := -1
	if m.robN > 0 {
		size := len(m.robBuf)
		end := m.robHead + m.robN
		err := m.robWalkMarked(m.robHead, min(end, size), &specBad)
		if err == nil && end > size {
			err = m.robWalkMarked(0, end-size, &specBad)
		}
		if err != nil {
			return err
		}
	}
	inWindow, wrongN := 0, 0
	for w := range c.win {
		inWindow += bits.OnesCount64(c.win[w])
		wrongN += bits.OnesCount64(c.wrong[w])
	}
	if err := m.robTallyErr(inWindow, wrongN, specBad); err != nil {
		return err
	}
	for w, d := range c.dirty {
		c.events[w] |= d
		c.dirty[w] = 0
	}
	c.walkAll = false
	c.specBr = sb
	if sb != nil {
		c.specSeq = sb.seq
	}
	return nil
}

// robWalkMarked runs the per-slot body on the marked slots in [lo, hi),
// ascending, recording each one's running-total bits and the ROB index
// of the first speculation violation in *specBad.
func (m *Machine) robWalkMarked(lo, hi int, specBad *int) error {
	c := &m.chk
	rob, mask := m.robBuf, len(m.robBuf)-1
	for wi := lo >> 6; wi<<6 < hi; wi++ {
		word := c.dirty[wi]
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
			slot := base + b
			i := (slot - m.robHead) & mask
			u := rob[slot]
			// robSlotErr's conditions, tested inline; it builds the error.
			bm := uint64(1) << uint(b)
			if (i > 0 && u.seq <= rob[(slot-1)&mask].seq) || u.stage == stRetired || u.slot != slot ||
				(m.dispW[wi]&bm != 0) != (u.stage == stDispatched) ||
				(m.execW[wi]&bm != 0) != (u.stage == stExecuting) {
				return m.robSlotErr(i, slot, u)
			}
			if u.stage == stDispatched || u.stage == stExecuting {
				c.win[wi] |= bm
			}
			if u.wrongPath {
				c.wrong[wi] |= bm
			}
			if *specBad < 0 && m.specViolation(u) {
				*specBad = i
			}
			// The younger neighbour's other checks passed and nothing of
			// its slot changed, but its predecessor did.
			if n := (slot + 1) & mask; i+1 < m.robN && c.dirty[n>>6]&(1<<(uint(n)&63)) == 0 {
				if v := rob[n]; v.seq <= u.seq {
					return m.robSlotErr(i+1, n, v)
				}
			}
		}
	}
	return nil
}

// robErrFull is the reference ROB check: one walk over every occupant,
// then robTallyErr. Under the cross-check it runs beside robErr every
// cycle and touches no checker state.
func (m *Machine) robErrFull() error {
	inWindow, wrongN, specBad := 0, 0, -1
	for i, slot := 0, m.robHead; i < m.robN; i, slot = i+1, (slot+1)&(len(m.robBuf)-1) {
		u := m.robBuf[slot]
		if err := m.robSlotErr(i, slot, u); err != nil {
			return err
		}
		if u.stage == stDispatched || u.stage == stExecuting {
			inWindow++
		}
		if u.wrongPath {
			wrongN++
		}
		if specBad < 0 && m.specViolation(u) {
			specBad = i
		}
	}
	return m.robTallyErr(inWindow, wrongN, specBad)
}

// robSlotErr is the per-slot body for occupant u of ROB index i in slot:
// strict program order after its predecessor, no retired µop lingering
// (retire removes entries as it marks them), the recorded slot, and the
// scheduler-mask bits mirroring its stage exactly (the bitset path's
// candidate sets equal the linear scan's).
func (m *Machine) robSlotErr(i, slot int, u *uop) error {
	if i > 0 {
		if prev := m.robBuf[(slot-1)&(len(m.robBuf)-1)].seq; u.seq <= prev {
			return fmt.Errorf("invariant: ROB out of order: µop #%d at slot %d follows #%d",
				u.seq, i, prev)
		}
	}
	if u.stage == stRetired {
		return fmt.Errorf("invariant: retired µop #%d (pc=%d) still in ROB slot %d", u.seq, u.pc, i)
	}
	if u.slot != slot {
		return fmt.Errorf("invariant: µop #%d records slot %d but occupies slot %d", u.seq, u.slot, slot)
	}
	w, b := bit(slot)
	if got, want := m.dispW[w]&b != 0, u.stage == stDispatched; got != want {
		return fmt.Errorf("invariant: µop #%d (stage %d) dispW bit=%v at slot %d", u.seq, u.stage, got, slot)
	}
	if got, want := m.execW[w]&b != 0, u.stage == stExecuting; got != want {
		return fmt.Errorf("invariant: µop #%d (stage %d) execW bit=%v at slot %d", u.seq, u.stage, got, slot)
	}
	return nil
}

// robTallyErr runs the checks after the ROB walk, in the order they are
// reported: the head against the last retired µop, the scheduler masks
// against the in-window count, the store queue, then the speculation
// discipline — wrong-path µops are exactly the ROB suffix younger than
// the outstanding mispredicted branch (specBad is the first occupant
// breaking that), their count matches the fetch-side counter (wrong-path
// µops never retire, so every one fetched is still in the ROB), and none
// may be queued for replay (wrong-path victims are discarded, not
// replayed).
func (m *Machine) robTallyErr(inWindow, wrongN, specBad int) error {
	if m.robN > 0 && m.robBuf[m.robHead].seq <= m.lastRetiredSeq {
		return fmt.Errorf("invariant: ROB head #%d not younger than last retired #%d",
			m.robBuf[m.robHead].seq, m.lastRetiredSeq)
	}
	// No mask bit may survive outside the occupied window, and only a
	// dispatched µop may be an issue candidate.
	pop := 0
	for w := range m.dispW {
		pop += bits.OnesCount64(m.dispW[w]) + bits.OnesCount64(m.execW[w])
		if extra := m.readyW[w] &^ m.dispW[w]; extra != 0 {
			return fmt.Errorf("invariant: readyW bit set at slot %d, which holds no dispatched µop",
				w<<6+bits.TrailingZeros64(extra))
		}
	}
	if pop != inWindow {
		return fmt.Errorf("invariant: %d scheduler-mask bits set for %d dispatched/executing µops", pop, inWindow)
	}

	// Store queue: stores only, program order, retired entries resolved,
	// and the dequeue discipline the config promises (only the head may be
	// in flight to the cache unless SQOutOfOrderDequeue).
	for i, e := range m.sq {
		if e.u.class != isa.ClassStore {
			return fmt.Errorf("invariant: non-store µop #%d (%v) in SQ slot %d", e.u.seq, e.u.inst, i)
		}
		if i > 0 && e.u.seq <= m.sq[i-1].u.seq {
			return fmt.Errorf("invariant: SQ out of order: store #%d at slot %d follows #%d",
				e.u.seq, i, m.sq[i-1].u.seq)
		}
		if e.u.stage == stRetired && !e.addrReady {
			return fmt.Errorf("invariant: retired store #%d has unresolved address", e.u.seq)
		}
		if e.dequeuing {
			if e.u.stage != stRetired {
				return fmt.Errorf("invariant: store #%d dequeuing before retirement", e.u.seq)
			}
			if i != 0 && !m.cfg.SQOutOfOrderDequeue {
				return fmt.Errorf("invariant: store #%d dequeuing behind the SQ head under in-order dequeue", e.u.seq)
			}
		}
	}

	if specBad >= 0 {
		u := m.robAt(specBad)
		if u.wrongPath {
			return fmt.Errorf("invariant: wrong-path µop #%d with no unresolved mispredicted branch older than it", u.seq)
		}
		return fmt.Errorf("invariant: correct-path µop #%d younger than unresolved mispredicted branch #%d",
			u.seq, m.specBranch.seq)
	}
	if wrongN != m.wrongPathN {
		return fmt.Errorf("invariant: %d wrong-path µops in ROB but counter says %d", wrongN, m.wrongPathN)
	}
	for _, v := range m.replay {
		if v.wrongPath {
			return fmt.Errorf("invariant: wrong-path µop #%d in the replay queue", v.seq)
		}
	}
	return nil
}

// checkReady runs at the start of issue: every dispatched µop's readyW
// bit must equal srcReady(0) && srcReady(1) at this cycle, so the wake
// points (dispatch, completion, fused issue) neither miss a µop whose
// operands became available nor offer one whose operands are not. It
// re-tests only what changed since its last pass.
func (m *Machine) checkReady() {
	if m.err != nil {
		return
	}
	c := &m.chk
	if !c.sweepAll {
		// A marked slot's own occupant, and every µop that named it
		// as a producer at rename.
		n := len(c.recheck)
		for wi := range c.recheck {
			ev := c.events[wi] | c.dirty[wi]
			c.recheck[wi] |= ev
			for ev != 0 {
				slot := wi<<6 + bits.TrailingZeros64(ev)
				ev &= ev - 1
				for i, row := range c.cons[slot*n : slot*n+n] {
					c.recheck[i] |= row
				}
			}
		}
	}
	err := m.readyErr(c.sweepAll)
	if c.cross && !m.agree(err, m.readyErr(true)) {
		return
	}
	if err != nil {
		m.fail("%v", err)
		return
	}
	for w := range c.recheck {
		c.seenDisp[w], c.seenReady[w] = m.dispW[w], m.readyW[w]
		c.events[w], c.recheck[w] = 0, 0
	}
	c.sweepAll = false
}

// readyErr tests the dispatched µops in slot order: all of them, or only
// those in recheck or whose dispW or readyW bit changed since the last
// pass.
func (m *Machine) readyErr(all bool) error {
	c := &m.chk
	for wi, word := range m.dispW {
		if !all {
			word &= c.recheck[wi] | (word ^ c.seenDisp[wi]) | (m.readyW[wi] ^ c.seenReady[wi])
		}
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			slot := wi<<6 + b
			u := m.robBuf[slot]
			want := u.srcReady(0, m.cycle) && u.srcReady(1, m.cycle)
			if got := m.readyW[wi]&(1<<uint(b)) != 0; got != want {
				return fmt.Errorf("invariant: µop #%d (pc=%d) readyW bit=%v at slot %d, operands ready=%v",
					u.seq, u.pc, got, slot, want)
			}
		}
	}
	return nil
}

// specViolation reports whether ROB occupant u breaks the speculation
// discipline: a wrong-path µop with no older outstanding mispredicted
// branch, or a correct-path µop younger than one.
func (m *Machine) specViolation(u *uop) bool {
	if u.wrongPath {
		return m.specBranch == nil || u.seq <= m.specBranch.seq
	}
	return m.specBranch != nil && u.seq > m.specBranch.seq
}

// checkForwardConsistency recomputes a store-to-load forwarding result
// with an independent algorithm — forwardScan's youngest-to-oldest, first
// writer per byte wins, instead of readWithForward's oldest-to-youngest
// overwrite — and fails the machine if the two disagree.
func (m *Machine) checkForwardConsistency(addr uint64, width int, seq uint64, gotVal uint64, gotFull, gotAny bool) {
	if m.err != nil {
		return
	}
	val, full, any := m.forwardScan(addr, width, seq, nil, nil)
	if val != gotVal || full != gotFull || any != gotAny {
		m.fail("invariant: forwarding disagreement at %#x/%d for load #%d: scan=(%#x full=%v any=%v) recheck=(%#x full=%v any=%v)",
			addr, width, seq, gotVal, gotFull, gotAny, val, full, any)
	}
}
