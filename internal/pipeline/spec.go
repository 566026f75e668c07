package pipeline

import (
	"pandora/internal/isa"
	"pandora/internal/obs"
	"pandora/internal/taint"
)

// Speculation mechanics (Config.Speculation): branch direction prediction
// (static BTFN or a 2-bit bimodal table), wrong-path fetch with
// squash-on-mispredict, and the store-to-load forwarding predictor with
// replay on misprediction. The two attack substrates this models:
//
//   - Store-to-Leak Forwarding (Schwarz et al., 1905.05725): the
//     forwarding predictor's decision — and whether the forwarded value
//     survives retire verification or forces a replay — is a function of
//     store addresses and data the attacker may not be allowed to read.
//
//   - Speculative-vectorization leakage (Karuppanan & Mirbagher,
//     2302.01131): a load fetched down the wrong path of a predicted
//     bounds check accesses the cache with an out-of-bounds (secret-
//     derived) address before the squash; the squash unwinds the ROB, not
//     the cache. A squashed leak is still a leak.
//
// Everything here is inert at Config.Speculation's zero value: the machine
// then behaves bit-identically to the non-speculative pipeline, which is
// the baseline half of every differential check.

// storeAddrLat returns the store AGU latency (Config.StoreAddrLat, with 0
// meaning the legacy single cycle).
func (m *Machine) storeAddrLat() int {
	if m.cfg.StoreAddrLat > 0 {
		return m.cfg.StoreAddrLat
	}
	return 1
}

// predictTaken is the frontend's direction prediction for a conditional
// branch at t.pc: the bimodal counter table when configured, else the
// static BTFN rule decoded into the template.
func (m *Machine) predictTaken(t *uopTemplate) bool {
	if m.cfg.Speculation.Bimodal {
		return m.btable[uint64(t.pc)&uint64(len(m.btable)-1)] >= 2
	}
	return t.predictedTaken
}

// trainBranch updates the bimodal counter toward the architectural
// outcome. Called at retire — once per dynamic instance, in program
// order, never from the wrong path. The stuck-predictor fault site
// freezes training (the table keeps predicting from stale state).
func (m *Machine) trainBranch(u *uop) {
	if !m.cfg.Speculation.Bimodal {
		return
	}
	if m.cfg.Faults.PredictorStuck(m.cycle) {
		return
	}
	i := uint64(u.pc) & uint64(len(m.btable)-1)
	if u.oracleTaken {
		if m.btable[i] < 3 {
			m.btable[i]++
		}
	} else if m.btable[i] > 0 {
		m.btable[i]--
	}
}

// specCanWrongPath reports whether a just-dispatched mispredicted µop
// starts wrong-path fetch instead of blocking the frontend. Only
// conditional branches qualify: a JALR has no predicted target to follow
// (no BTB), so it keeps the legacy fetchBlocked stall.
func (m *Machine) specCanWrongPath(u *uop) bool {
	return m.cfg.Speculation.WrongPath && u.class == isa.ClassBranch
}

// beginWrongPath enters wrong-path mode: fetch follows u's predicted
// direction until the branch resolves and squashWrongPath unwinds.
// u stays referenced (like fetchBlocked) because the branch may retire-
// verify only after the squash logic has read it.
func (m *Machine) beginWrongPath(u *uop) {
	m.specBranch = u
	u.refs++
	if u.predictedTaken {
		m.wrongPathPC = u.inst.Imm
	} else {
		m.wrongPathPC = u.pc + 1
	}
	m.wrongPathN = 0
}

// newWrongPathUop fetches one µop down the predicted path. The oracle is
// never stepped — there are no architectural facts to be had on the wrong
// path — so the µop carries template facts only and must never retire.
// Returns nil (fetch stalls until the squash) when the predicted path
// runs off the program, reaches a HALT or an indirect jump, exceeds the
// wrong-path cap, or the backend lacks resources.
func (m *Machine) newWrongPathUop() *uop {
	pc := m.wrongPathPC
	if pc < 0 || pc >= int64(len(m.prog)) {
		return nil
	}
	t := &m.tmpl[pc]
	if t.class == isa.ClassHalt || t.alwaysRedirect {
		return nil
	}
	if m.wrongPathN >= m.cfg.Speculation.maxWrongPath(m.cfg.ROBSize) {
		return nil
	}
	if !m.resourcesFor(t) {
		return nil
	}
	u := m.allocUop()
	u.t = t
	u.pc = t.pc
	u.inst = t.inst
	u.class = t.class
	u.memWidth = t.memWidth
	u.wrongPath = true
	switch t.class {
	case isa.ClassBranch:
		// Nested prediction: wrong-path branches follow their own
		// predicted direction (there is no oracle outcome to mispredict
		// against).
		if m.predictTaken(t) {
			u.predictedTaken = true
			m.wrongPathPC = t.inst.Imm
		} else {
			m.wrongPathPC = pc + 1
		}
	case isa.ClassJump:
		m.wrongPathPC = t.inst.Imm // JAL; JALR was rejected above
	default:
		m.wrongPathPC = pc + 1
	}
	m.wrongPathN++
	m.stats.WrongPathFetched++
	return u
}

// squashWrongPath is mispredict recovery: the resolved branch stays in
// the ROB (it completes and retires normally); everything younger — the
// wrong path — is discarded, never replayed. Fetch resumes on the correct
// path after branchPenalty: the oracle already sits at the branch's true
// successor, since wrong-path fetch never stepped it.
func (m *Machine) squashWrongPath(br *uop) {
	m.stats.MispredictSquashes++
	m.emit(obs.KindSquash, obs.TrackIssue, br, int64(m.wrongPathN), "mispredict")
	m.squashTail(br.seq+1, branchPenalty)
	// squashTail clears specBranch only for seq >= minSeq; the initiating
	// branch itself is older, so exit wrong-path mode by hand.
	if m.specBranch == br {
		m.specBranch = nil
		m.wrongPathPC = -1
		m.wrongPathN = 0
		m.unref(br)
	}
}

// stlfConf/stlfBump/stlfReset manage the per-PC 2-bit forwarding
// confidence counters. Training happens on full (non-speculative)
// forwards and on successful retire verification; a mis-forward resets
// the counter, so a replayed load cannot immediately mis-forward again.
func (m *Machine) stlfConf(pc int64) uint8 {
	if len(m.stlf) == 0 {
		return 0
	}
	return m.stlf[uint64(pc)&uint64(len(m.stlf)-1)]
}

func (m *Machine) stlfBump(pc int64) {
	if len(m.stlf) == 0 || m.cfg.Faults.PredictorStuck(m.cycle) {
		return
	}
	if i := uint64(pc) & uint64(len(m.stlf)-1); m.stlf[i] < 3 {
		m.stlf[i]++
	}
}

func (m *Machine) stlfReset(pc int64) {
	if len(m.stlf) == 0 || m.cfg.Faults.PredictorStuck(m.cycle) {
		return
	}
	m.stlf[uint64(pc)&uint64(len(m.stlf)-1)] = 0
}

// trySpecForward attempts a predictive store-to-load forward for a load
// blocked on an older store with an unresolved address. With high per-PC
// confidence, the load consumes the youngest older store whose data is
// already latched and issues at forwarding latency — before anyone knows
// whether the addresses match. Verification happens at retire
// (verifySpecForward); the forwarded value, its taint and its labels flow
// to consumers in the meantime. Returns true if a load port was consumed.
func (m *Machine) trySpecForward(u *uop) bool {
	if !m.cfg.Speculation.StLF {
		return false
	}
	if m.stlfConf(u.pc) < 2 {
		return false
	}
	var src *uop
	for _, e := range m.sq {
		if e.u.seq >= u.seq {
			break
		}
		if e.u.stage != stDispatched {
			src = e.u // data latched at issue, address possibly not yet
		}
	}
	if src == nil {
		return false
	}
	m.readSources(u)
	u.addr = u.inst.EffectiveAddr(u.srcVals[0])
	val := src.storeVal
	if u.memWidth < 8 {
		val &= 1<<(8*uint(u.memWidth)) - 1
	}
	m.startExec(u, forwardLat)
	u.result = isa.LoadExtend(u.inst.Op, val)
	u.specForwarded = true
	u.specData = true
	if src.tainted {
		u.tainted = true
	}
	u.labels |= src.labels
	m.stats.SpecForwards++
	m.emit(obs.KindForward, obs.TrackMem, u, forwardLat, "speculative")
	// The predictor's decision exposes the forwarded store's data and,
	// through the later verify/replay, the store-load address match.
	m.cfg.Taint.ObserveSpecForward(m.cycle, u.pc, u.labels)
	return true
}

// verifySpecForward checks a speculatively forwarded load at retire, the
// first point where every older store's address is architecturally
// resolved. A match folds the true bytes' labels and taint into the load
// (the speculative copy was correct, but its sources still determine what
// was observable); a mismatch squashes the load and everything younger
// for replay. Returns false when a replay squash happened — the caller
// must stop retiring this cycle.
func (m *Machine) verifySpecForward(u *uop) bool {
	var byteLabels [8]taint.LabelSet
	tainted := false
	val, _, _ := m.forwardScan(u.addr, u.memWidth, u.seq, &byteLabels, &tainted)
	val = isa.LoadExtend(u.inst.Op, val)
	if val != u.result {
		m.stlfReset(u.pc)
		m.stats.SpecForwardReplays++
		m.emit(obs.KindSquash, obs.TrackIssue, u, 0, "spec-forward-replay")
		m.squashTail(u.seq, m.cfg.SquashPenalty)
		return false
	}
	m.stlfBump(u.pc)
	u.specForwarded = false
	u.specData = false
	if tainted {
		u.tainted = true
	}
	if m.cfg.Taint != nil {
		for i := 0; i < u.memWidth; i++ {
			u.labels |= byteLabels[i]
		}
	}
	return true
}

// squashTail removes every µop with seq >= minSeq from the pipeline:
// correct-path victims queue for replay (the value-misprediction path),
// wrong-path victims are discarded outright (they have no architectural
// future). This is the one unwind routine every squash flavor —
// value-misprediction, branch-mispredict, spec-forward replay — goes
// through, so the ROB ring, scheduler bitsets, SQ, fence queue, rename
// map, PRF accounting and pool refcounts all recover in one place.
func (m *Machine) squashTail(minSeq uint64, penalty int) {
	squashed := m.squashScratch[:0]
	for m.robN > 0 {
		tail := m.robAt(m.robN - 1)
		if tail.seq < minSeq {
			break
		}
		m.robPopTail()
		squashed = append(squashed, tail)
	}
	// Pop order is youngest-first; reverse so accounting, events and the
	// replay queue all see program order.
	for i, j := 0, len(squashed)-1; i < j; i, j = i+1, j-1 {
		squashed[i], squashed[j] = squashed[j], squashed[i]
	}
	m.squashScratch = squashed

	for _, v := range squashed {
		m.stats.SquashedUops++
		m.emit(obs.KindSquash, obs.TrackIssue, v, 0, "")
		if v.t.writesReg {
			if v.wroteback {
				if m.vf.Release(v.result) {
					m.prfFree++
				}
			} else if v.renamed {
				m.prfFree++
			}
		}
		if v.stage == stDispatched {
			m.iqCount--
		}
		if v.class == isa.ClassLoad {
			m.lqCount--
		}
	}

	// Remove squashed stores from the SQ (none can be dequeuing: dequeue
	// requires retirement, and retirement is in-order behind the squash
	// point).
	sq := m.sq[:0]
	for _, e := range m.sq {
		if e.u.seq < minSeq {
			sq = append(sq, e)
			continue
		}
		if e.dequeuing || e.u.stage == stRetired {
			m.fail("squashed a retired/dequeuing store #%d", e.u.seq)
		}
		m.freeSQ(e)
	}
	for i := len(sq); i < len(m.sq); i++ {
		m.sq[i] = nil
	}
	m.sq = sq

	// Squashed fences leave the fence queue (its tail, by program order).
	for n := len(m.fenceQ); n > 0 && m.fenceQ[n-1].seq >= minSeq; n = len(m.fenceQ) {
		f := m.fenceQ[n-1]
		m.fenceQ[n-1] = nil
		m.fenceQ = m.fenceQ[:n-1]
		m.unref(f)
	}

	// Rebuild the rename map from surviving in-flight µops.
	m.producer = [isa.NumRegs]*uop{}
	for i := 0; i < m.robN; i++ {
		v := m.robAt(i)
		if v.t.writesReg && v.stage != stRetired {
			m.producer[v.t.dest] = v
		}
	}

	// Disposition. Two passes: every victim releases its producer
	// references first — a victim may hold the last reference to another
	// victim, and freeing A while B still points at it would corrupt the
	// pool — then wrong-path victims are freed and correct-path victims
	// queue for replay.
	replayable := 0
	for _, v := range squashed {
		if v.wrongPath {
			m.releaseProds(v)
		} else {
			m.resetForReplay(v) // releases prods internally
			replayable++
		}
	}
	if replayable > 0 {
		next := m.replaySwap[:0]
		for _, v := range squashed {
			if !v.wrongPath {
				next = append(next, v)
			}
		}
		next = append(next, m.replay...)
		for i := range m.replay {
			m.replay[i] = nil
		}
		m.replaySwap = m.replay[:0]
		m.replay = next
	}
	for _, v := range squashed {
		if !v.wrongPath {
			continue
		}
		if v.refs != 0 {
			m.fail("pool: squashed wrong-path µop #%d still referenced (refs=%d)", v.seq, v.refs)
			continue
		}
		m.freeUop(v)
	}

	if resume := m.cycle + int64(penalty); resume > m.fetchResumeC {
		m.fetchResumeC = resume
	}
	if m.fetchBlocked != nil && m.fetchBlocked.seq >= minSeq {
		b := m.fetchBlocked
		m.fetchBlocked = nil
		m.unref(b)
	}
	if m.specBranch != nil && m.specBranch.seq >= minSeq {
		b := m.specBranch
		m.specBranch = nil
		m.wrongPathPC = -1
		m.wrongPathN = 0
		m.unref(b)
	}
}

// forwardScan recomputes the bytes a load at (addr, width, seq) observes
// from the store queue and memory, youngest-store-first with first-
// writer-per-byte-wins — the independent algorithm the invariant checker
// diffs against readWithForward's oldest-first overwrite scan, and the
// architectural reference verifySpecForward compares a speculative
// forward against. byteLabels and tainted, when non-nil, collect the
// per-byte shadow labels and RDCYCLE taint of whatever source (store or
// memory) supplied each byte.
func (m *Machine) forwardScan(addr uint64, width int, seq uint64, byteLabels *[8]taint.LabelSet, tainted *bool) (val uint64, full, any bool) {
	var b [8]byte
	var covered [8]bool
	for k := len(m.sq) - 1; k >= 0; k-- {
		e := m.sq[k]
		if e.u.seq >= seq || !e.addrReady {
			continue
		}
		sa, sw := e.u.addr, e.u.memWidth
		for i := 0; i < width; i++ {
			a := addr + uint64(i)
			if !covered[i] && a >= sa && a < sa+uint64(sw) {
				b[i] = byte(e.u.storeVal >> (8 * (a - sa)))
				covered[i] = true
				if byteLabels != nil {
					byteLabels[i] = e.u.labels
				}
				if tainted != nil && e.u.tainted {
					*tainted = true
				}
			}
		}
	}
	st := m.cfg.Taint
	full, any = true, false
	for i := width - 1; i >= 0; i-- {
		if covered[i] {
			any = true
		} else {
			full = false
			a := addr + uint64(i)
			b[i] = m.mem.LoadByte(a)
			if byteLabels != nil && st != nil {
				byteLabels[i] = st.Mem.Get(a)
			}
			if tainted != nil && len(m.taintedMem) > 0 && m.taintedMem[a] {
				*tainted = true
			}
		}
		val = val<<8 | uint64(b[i])
	}
	full = full && any
	return val, full, any
}
