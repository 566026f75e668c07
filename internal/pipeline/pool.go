package pipeline

// µop and store-queue-entry recycling. Fetch used to allocate a fresh
// *uop (and *sqEntry) for every dynamic instruction — ~20% of hot-path CPU
// went to the allocator and GC on sweep workloads. Both structs now come
// from per-Machine free lists, so steady-state simulation allocates
// nothing.
//
// A µop may be referenced after it leaves the ROB, so recycling is
// refcounted. The counted references are exactly:
//
//   - consumer prod[] pointers, taken at dispatch and released when the
//     consumer latches its operands and issues (startExec) or is reset for
//     replay — a producer may retire while a consumer still reads its
//     result through prod;
//   - the store's own sqEntry, released when the entry leaves the SQ
//     (stores retire before they dequeue);
//   - m.fetchBlocked (an unresolved branch/JALR, read by fetch after it
//     may have left the ROB);
//   - m.specBranch (the unresolved mispredicted branch wrong-path fetch
//     runs behind, read by the squash logic at resolution);
//   - the fence queue (read by the memory-issue check until the fence
//     completes).
//
// m.producer, the ROB ring, and the replay queue deliberately hold
// uncounted pointers: each only ever references in-flight (non-retired)
// µops, and a µop is recycled only once it is BOTH retired and
// unreferenced. u.fusedProd aliases u.prod[0] and needs no count of its
// own.

// allocUop returns a zeroed µop.
func (m *Machine) allocUop() *uop {
	n := len(m.uopPool)
	if n == 0 {
		m.uopAllocated++
		return &uop{}
	}
	u := m.uopPool[n-1]
	m.uopPool[n-1] = nil
	m.uopPool = m.uopPool[:n-1]
	u.pooled = false
	return u
}

// freeUop recycles u. Double frees indicate a reference-counting bug and
// fail the machine loudly rather than corrupting an unrelated µop.
func (m *Machine) freeUop(u *uop) {
	if u.pooled {
		m.fail("pool: double free of µop #%d (pc=%d)", u.seq, u.pc)
		return
	}
	*u = uop{pooled: true}
	m.uopPool = append(m.uopPool, u)
}

// unref drops one counted reference; the last reference to a retired µop
// recycles it (retire itself frees µops that are already unreferenced).
func (m *Machine) unref(u *uop) {
	u.refs--
	m.changes++
	if u.refs == 0 && u.stage == stRetired {
		m.freeUop(u)
	}
}

// releaseProds drops u's producer references (idempotent: prod entries are
// nilled as they are released). Called when u latches operands and issues,
// and when a squash resets a still-waiting u for replay.
func (m *Machine) releaseProds(u *uop) {
	for i, p := range u.prod {
		if p != nil {
			u.prod[i] = nil
			m.unref(p)
		}
	}
}

// allocSQ returns a store-queue entry bound to store µop u, holding one
// reference to it for the entry's lifetime.
func (m *Machine) allocSQ(u *uop) *sqEntry {
	var e *sqEntry
	if n := len(m.sqPool); n > 0 {
		e = m.sqPool[n-1]
		m.sqPool[n-1] = nil
		m.sqPool = m.sqPool[:n-1]
	} else {
		m.sqAllocated++
		e = &sqEntry{}
	}
	e.u = u
	u.sqe = e
	u.refs++
	return e
}

// freeSQ recycles a store-queue entry and drops its hold on the store.
func (m *Machine) freeSQ(e *sqEntry) {
	u := e.u
	*e = sqEntry{}
	m.changes++
	m.sqPool = append(m.sqPool, e)
	u.sqe = nil
	m.unref(u)
}

// popSQHead removes and recycles the head store-queue entry, keeping the
// slice's backing array (the SQ is bounded by SQSize, so the shift is a
// handful of pointer moves and the queue never reallocates in steady
// state).
func (m *Machine) popSQHead() {
	e := m.sq[0]
	n := len(m.sq)
	copy(m.sq, m.sq[1:])
	m.sq[n-1] = nil
	m.sq = m.sq[:n-1]
	m.changes++
	m.freeSQ(e)
}

// reclaimInFlight returns every in-flight µop and SQ entry to the pools
// and empties the ROB, SQ, replay and fence queues — the start-of-Run
// reset. After a clean run everything is already drained and this is a
// no-op; after an aborted run (watchdog, MaxCycles, fault campaigns) it is
// what keeps the pools from leaking. A store µop can be reachable through
// both the ROB and its SQ entry, so the pooled flag guards re-free here.
//
// Producer references are released first, for every reachable µop: a
// consumer still waiting to issue may hold the only reference to a
// producer that already retired and left every queue, and freeing the
// consumer without the unref would leak that producer permanently (the
// pool would quietly re-allocate a replacement on every aborted run).
// The release pass must finish before any force-free below — unref on an
// already-recycled µop corrupts the fresh pool entry's refcount.
func (m *Machine) reclaimInFlight() {
	for i := 0; i < m.robN; i++ {
		m.releaseProds(m.robBuf[(m.robHead+i)&(len(m.robBuf)-1)])
	}
	for _, u := range m.replay {
		m.releaseProds(u)
	}
	if m.fetchBlocked != nil {
		m.releaseProds(m.fetchBlocked)
	}
	for i := 0; i < m.robN; i++ {
		slot := (m.robHead + i) & (len(m.robBuf) - 1)
		u := m.robBuf[slot]
		m.robBuf[slot] = nil
		// Return the physical register held by every in-flight writer —
		// the same accounting squashTail does. Without it each abort
		// leaks PRF entries until rename stalls the machine permanently.
		// (Replay-queue µops were already accounted at their squash; the
		// ROB holds every other non-retired µop exactly once.)
		if u.t != nil && u.t.writesReg {
			if u.wroteback {
				if m.vf.Release(u.result) {
					m.prfFree++
				}
			} else if u.renamed {
				m.prfFree++
			}
		}
		if !u.pooled {
			m.freeUop(u)
		}
	}
	m.robHead, m.robN = 0, 0
	clear(m.dispW)
	clear(m.readyW)
	clear(m.execW)
	for i, e := range m.sq {
		m.sq[i] = nil
		if e.u != nil && !e.u.pooled {
			m.freeUop(e.u)
		}
		*e = sqEntry{}
		m.sqPool = append(m.sqPool, e)
	}
	m.sq = m.sq[:0]
	for i, u := range m.replay {
		m.replay[i] = nil
		if !u.pooled {
			m.freeUop(u)
		}
	}
	m.replay = m.replay[:0]
	if u := m.fetchBlocked; u != nil {
		m.fetchBlocked = nil
		if !u.pooled {
			m.freeUop(u)
		}
	}
	if u := m.specBranch; u != nil {
		m.specBranch = nil
		if !u.pooled {
			m.freeUop(u)
		}
	}
	m.wrongPathPC = -1
	m.wrongPathN = 0
	for i, u := range m.fenceQ {
		m.fenceQ[i] = nil
		if !u.pooled {
			m.freeUop(u)
		}
	}
	m.fenceQ = m.fenceQ[:0]
}
