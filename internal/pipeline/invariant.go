package pipeline

import (
	"math/bits"

	"pandora/internal/isa"
)

// This file holds the per-cycle structural self-checks enabled by
// Config.CheckInvariants. Every violation is reported through m.fail, so
// the error carries the cycle on which the structure first went wrong —
// the property the differential harness (internal/diffcheck) relies on to
// localize a bug, since an end-of-run state diff only says *that* the
// machines diverged, not *when*.

// checkInvariants runs once per cycle, after every stage has ticked.
//
// One walk over the ROB gathers what three groups of checks need: the
// ROB-structure checks fail on the spot, since they are reported first;
// the speculation checks keep the slot of their first violation and the
// wrong-path count, and are reported after the store queue's, so every
// message and the cycle it fires on match a walk per group.
func (m *Machine) checkInvariants() {
	if m.err != nil {
		return
	}

	// ROB: strict program order, head younger than everything retired,
	// no retired µop lingering (retire removes entries as it marks them),
	// and each occupant's scheduler-mask bits mirroring its stage and slot
	// exactly (the bitset path's candidate sets equal the linear scan's).
	//
	// Speculation discipline: wrong-path µops are exactly the ROB suffix
	// younger than the outstanding mispredicted branch, their count
	// matches the fetch-side counter (wrong-path µops never retire, so
	// every one fetched is still in the ROB), and none may be queued for
	// replay (wrong-path victims are discarded, not replayed).
	prev := uint64(0)
	inWindow, wrongN, specBad := 0, 0, -1
	rob, dispW, execW := m.robBuf, m.dispW, m.execW
	for i, slot := 0, m.robHead; i < m.robN; i, slot = i+1, (slot+1)&(len(rob)-1) {
		u := rob[slot]
		if i > 0 && u.seq <= prev {
			m.fail("invariant: ROB out of order: µop #%d at slot %d follows #%d",
				u.seq, i, prev)
			return
		}
		prev = u.seq
		if u.stage == stRetired {
			m.fail("invariant: retired µop #%d (pc=%d) still in ROB slot %d", u.seq, u.pc, i)
			return
		}
		if u.slot != slot {
			m.fail("invariant: µop #%d records slot %d but occupies slot %d", u.seq, u.slot, slot)
			return
		}
		w, b := slot>>6, uint64(1)<<(uint(slot)&63)
		if got, want := dispW[w]&b != 0, u.stage == stDispatched; got != want {
			m.fail("invariant: µop #%d (stage %d) dispW bit=%v at slot %d", u.seq, u.stage, got, slot)
			return
		}
		if got, want := execW[w]&b != 0, u.stage == stExecuting; got != want {
			m.fail("invariant: µop #%d (stage %d) execW bit=%v at slot %d", u.seq, u.stage, got, slot)
			return
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
	if m.robN > 0 && m.robBuf[m.robHead].seq <= m.lastRetiredSeq {
		m.fail("invariant: ROB head #%d not younger than last retired #%d",
			m.robBuf[m.robHead].seq, m.lastRetiredSeq)
		return
	}
	// No mask bit may survive outside the occupied window.
	pop := 0
	for w := range m.dispW {
		pop += bits.OnesCount64(m.dispW[w]) + bits.OnesCount64(m.execW[w])
	}
	if pop != inWindow {
		m.fail("invariant: %d scheduler-mask bits set for %d dispatched/executing µops", pop, inWindow)
		return
	}

	// Store queue: stores only, program order, retired entries resolved,
	// and the dequeue discipline the config promises (only the head may be
	// in flight to the cache unless SQOutOfOrderDequeue).
	for i, e := range m.sq {
		if e.u.class != isa.ClassStore {
			m.fail("invariant: non-store µop #%d (%v) in SQ slot %d", e.u.seq, e.u.inst, i)
			return
		}
		if i > 0 && e.u.seq <= m.sq[i-1].u.seq {
			m.fail("invariant: SQ out of order: store #%d at slot %d follows #%d",
				e.u.seq, i, m.sq[i-1].u.seq)
			return
		}
		if e.u.stage == stRetired && !e.addrReady {
			m.fail("invariant: retired store #%d has unresolved address", e.u.seq)
			return
		}
		if e.dequeuing {
			if e.u.stage != stRetired {
				m.fail("invariant: store #%d dequeuing before retirement", e.u.seq)
				return
			}
			if i != 0 && !m.cfg.SQOutOfOrderDequeue {
				m.fail("invariant: store #%d dequeuing behind the SQ head under in-order dequeue", e.u.seq)
				return
			}
		}
	}

	if specBad >= 0 {
		u := m.robAt(specBad)
		if u.wrongPath {
			m.fail("invariant: wrong-path µop #%d with no unresolved mispredicted branch older than it", u.seq)
		} else {
			m.fail("invariant: correct-path µop #%d younger than unresolved mispredicted branch #%d",
				u.seq, m.specBranch.seq)
		}
		return
	}
	if wrongN != m.wrongPathN {
		m.fail("invariant: %d wrong-path µops in ROB but counter says %d", wrongN, m.wrongPathN)
		return
	}
	for _, v := range m.replay {
		if v.wrongPath {
			m.fail("invariant: wrong-path µop #%d in the replay queue", v.seq)
			return
		}
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
