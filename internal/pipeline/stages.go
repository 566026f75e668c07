package pipeline

import (
	"math"

	"pandora/internal/faults"
	"pandora/internal/isa"
	"pandora/internal/obs"
	"pandora/internal/taint"
	"pandora/internal/uopt"
)

// retire commits up to RetireWidth completed µops in program order,
// verifying each register result against the control-flow oracle.
func (m *Machine) retire() {
	for n := 0; n < m.cfg.RetireWidth && m.robN > 0; n++ {
		u := m.robBuf[m.robHead]
		if u.stage != stDone {
			return
		}
		// Wrong-path µops carry no architectural facts and must be
		// squashed before the initiating branch retires; one at the ROB
		// head is a recovery bug, not a recoverable state.
		if u.wrongPath {
			m.fail("invariant: wrong-path µop #%d (pc=%d) reached retirement", u.seq, u.pc)
			return
		}
		// A speculatively forwarded load verifies now, when every older
		// store address is architecturally resolved; a mismatch squashes
		// the load (inclusive) for replay and ends this retire sweep.
		if u.specForwarded && !m.verifySpecForward(u) {
			return
		}
		// Every value prediction older than u has verified by now (a
		// wrong one squashed u), so a branch or JALR that read one gets
		// the control-flow check it skipped at completion.
		if u.predData && !m.checkControl(u) {
			return
		}
		// Replay re-dispatches with a fresh sequence number, so retire
		// order is strictly increasing seq — anything else is a ROB bug.
		if m.cfg.CheckInvariants && u.seq <= m.lastRetiredSeq {
			m.fail("invariant: retire out of program order: µop #%d after #%d", u.seq, m.lastRetiredSeq)
			return
		}
		m.lastRetiredSeq = u.seq
		u.stage = stRetired
		u.retireC = m.cycle
		m.robPopHead()
		m.stats.Retired++
		m.emit(obs.KindRetire, obs.TrackRetire, u, m.cycle-u.fetchC, "")
		m.retired[m.nRetired%RetireHistory] = retireRec{u.t, u.seq, u.fetchC, u.doneC}
		m.nRetired++

		if st := m.cfg.Taint; st != nil {
			m.retireShadow(st, u)
		}

		if u.t.writesReg {
			r := u.t.dest
			if !u.tainted && u.result != u.oracleResult {
				m.fail("retire verification failed at pc=%d %v: pipeline=%#x oracle=%#x",
					u.pc, u.inst, u.result, u.oracleResult)
				return
			}
			// The previous committed value of r dies; its physical
			// register returns to the pool when its last reference does.
			if m.vf.Release(m.committed[r]) {
				m.prfFree++
			}
			m.committed[r] = u.result
			m.committedTaint[r] = u.tainted
			// Fault site: a bit flip at rest in the committed register
			// file, landing just after retire verification accepted the
			// value — only later readers can expose it.
			if fv, flipped := m.cfg.Faults.FlipValue(faults.SitePRF, m.cycle, u.result); flipped {
				m.committed[r] = fv
			}
			if m.producer[r] == u {
				m.producer[r] = nil
			}
		}
		switch u.class {
		case isa.ClassLoad:
			m.lqCount--
			// Predictors train at commit: exactly once per dynamic
			// instance, in program order, replay-immune.
			if m.vp != nil {
				m.vp.Resolve(u.pc, u.result, u.wasPredicted, u.predictedVal)
			}
		case isa.ClassBranch:
			// The bimodal predictor trains at commit, like the value
			// predictor: once per dynamic instance, in program order.
			m.trainBranch(u)
		case isa.ClassHalt:
			m.haltRetired = true
		}
		// An unreferenced µop recycles immediately; stores (SQ entry) and
		// in-queue fences recycle when their last reference drops.
		if u.refs == 0 {
			m.freeUop(u)
		}
	}
}

// retireShadow commits one µop's secret labels in program order,
// mirroring the emulator-side rules in taint.State.StepEmu. Retire is the
// only in-order point the pipeline has, so it is where the sticky control
// set is both grown (branch/JALR predicates) and folded into writes.
func (m *Machine) retireShadow(st *taint.State, u *uop) {
	switch u.class {
	case isa.ClassBranch:
		if u.labels.Any() {
			st.ObserveControlFlow(m.cycle, u.pc, u.labels)
			st.Control |= u.labels
		}
	case isa.ClassJump:
		if u.inst.Op == isa.JALR && u.labels.Any() {
			st.ObserveControlFlow(m.cycle, u.pc, u.labels)
			st.Control |= u.labels
		}
		u.labels = st.Control // the link value reflects only the path
	default:
		u.labels |= st.Control
	}
	if u.t.writesReg {
		st.Regs[u.t.dest] = u.labels
	}
	if u.class == isa.ClassLoad && m.vp != nil {
		// The predictor trains on this value at commit: its table now
		// holds secret-derived state, and future predictions of this PC
		// carry these labels (State.Pred).
		st.ObserveValuePred(m.cycle, u.pc, u.labels)
		st.Pred[u.pc] = u.labels
	}
}

// complete applies writeback effects for µops whose execution finishes at
// or before this cycle: result availability, RFC early register release,
// reuse-buffer update, value-prediction verification (and squash), and
// store-queue address resolution. A register writer wakes its waiting
// consumers (readyW's completion wake point). Candidates come from the
// executing bitset (or a reference linear scan), in program order; the
// bitset path returns at once while the cycle is below minDoneC.
func (m *Machine) complete() {
	cands := m.completeScratch[:0]
	if m.cfg.LinearScheduler {
		cands = m.gatherStage(stExecuting, cands)
	} else {
		if m.cycle < m.minDoneC {
			return
		}
		cands = m.gatherMasked(m.execW, cands)
	}
	m.completeScratch = cands

	var squashAfter *uop
	var mispredictDone *uop
	next := int64(math.MaxInt64)
	for _, u := range cands {
		if u.doneC > m.cycle {
			next = min(next, u.doneC)
			continue
		}
		u.stage = stDone
		m.execDone(u)

		if u.t.writesReg {
			m.wake(u)
			u.wroteback = true
			if m.cfg.RFC != uopt.RFCOff {
				// The compressor tests the (possibly secret) result value
				// against every value at rest in the physical file.
				m.cfg.Taint.ObserveRFC(m.cycle, u.pc, u.labels)
			}
			if m.vf.Produce(u.result) {
				u.sharedReg = true
				m.prfFree++
				m.emit(obs.KindUopt, obs.TrackUopt, u, 0, "rfc-share")
			}
			if m.cfg.Reuse != uopt.ReuseOff {
				m.reuse.InvalidateReg(uint8(u.t.dest))
			}
		}

		switch u.class {
		case isa.ClassALU, isa.ClassMul, isa.ClassDiv:
			if m.cfg.Reuse != uopt.ReuseOff && !u.reused && u.inst.Op != isa.LUI {
				m.reuse.Update(u.pc, u.srcVals[0], u.srcVals[1], uint8(u.t.src1), uint8(u.t.src2), u.result)
			}
		case isa.ClassLoad:
			if u.predicted {
				if u.predictedVal != u.result {
					// Value misprediction: squash everything younger.
					if squashAfter == nil || u.seq < squashAfter.seq {
						squashAfter = u
					}
				}
				u.predicted = false // consumers must now read the real result
			}
		case isa.ClassStore:
			e := u.sqe
			e.addrReady = true
			m.emit(obs.KindAddrResolved, obs.TrackMem, u, int64(u.storeVal), "")
			if m.cfg.SilentStores.Scheme == SSLSQCompare {
				m.lsqCompare(e)
			}
		case isa.ClassBranch:
			// A wrong-path branch has no oracle outcome to diverge from.
			if u.wrongPath {
				break
			}
			// A branch fed by an unverified speculative forward may
			// legitimately compute the wrong direction; the forwarding
			// replay squashes it before it retires, so divergence is only
			// a machine bug on non-speculative dataflow. One fed by a
			// value prediction is checked at retire instead.
			if !u.specData && !u.predData {
				m.checkControl(u)
			}
			if u == m.specBranch {
				mispredictDone = u
			}
		case isa.ClassJump:
			if !u.specData && !u.predData {
				m.checkControl(u)
			}
		}
	}
	m.minDoneC = next
	// A value squash at an older load subsumes mispredict recovery: the
	// branch itself is squashed for replay (mispredicted preserved) and
	// squashTail clears wrong-path mode. squashAfter is always older —
	// wrong-path loads are never value-predicted, so no predicted load
	// can sit younger than the unresolved branch.
	if squashAfter != nil {
		m.squashYounger(squashAfter)
	} else if mispredictDone != nil {
		m.squashWrongPath(mispredictDone)
	}
}

// checkControl fails the run when a completed conditional branch or JALR
// computed, from its latched operands, a different outcome than the
// oracle's. It reports whether the outcome agreed.
func (m *Machine) checkControl(u *uop) bool {
	switch {
	case u.class == isa.ClassBranch:
		if taken := isa.Taken(u.inst.Op, u.srcVals[0], u.srcVals[1]); taken != u.oracleTaken {
			m.fail("branch divergence at pc=%d %v (pipeline taken=%v oracle=%v)",
				u.pc, u.inst, taken, u.oracleTaken)
			return false
		}
	case u.inst.Op == isa.JALR:
		if target := int64(u.inst.EffectiveAddr(u.srcVals[0])); target != u.nextPC {
			m.fail("indirect jump divergence at pc=%d (pipeline target=%d oracle=%d)",
				u.pc, target, u.nextPC)
			return false
		}
	}
	return true
}

// squashYounger removes every µop younger than u from the pipeline and
// queues it for replay — the value-misprediction recovery path. The
// unwind itself lives in squashTail (spec.go), shared with mispredict and
// spec-forward-replay recovery.
func (m *Machine) squashYounger(u *uop) {
	m.stats.ValueSquashes++
	if m.vp != nil {
		m.vp.Squash()
	}
	m.squashTail(u.seq+1, m.cfg.SquashPenalty)
}

func (m *Machine) resetForReplay(v *uop) {
	v.stage = stDispatched
	m.releaseProds(v)
	v.srcVals = [2]uint64{}
	v.result = 0
	v.addr = 0
	v.storeVal = 0
	v.tainted = false
	v.labels = 0
	v.obsMask = 0
	v.predicted = false
	v.wasPredicted = false
	v.predictedVal = 0
	v.reused = false
	v.fusedProd = nil
	v.packed = false
	v.sharedReg = false
	v.renamed = false
	v.wroteback = false
	v.stuck = false // a squash clears a dropped wakeup: replay re-arms issue
	v.specForwarded = false
	v.specData = false
	v.predData = false
	v.replayed++
	if v.replayed > 64 {
		m.fail("µop #%d replayed %d times (livelock)", v.seq, v.replayed)
	}
}

// sqTick advances the store queue: SS-Load returns, silent dequeues, and
// in-order store performs (Figure 4 of the paper).
func (m *Machine) sqTick() {
	// SS-Load returns.
	for _, e := range m.sq {
		if e.ss == ssPending && m.cycle >= e.ssReturnC {
			m.ssCompare(e, false)
		}
	}
	// Head processing. Multiple consecutive silent stores may dequeue in
	// one cycle; a performing store occupies the head until its line is
	// in the cache.
	for len(m.sq) > 0 {
		e := m.sq[0]
		if e.dequeuing {
			if m.cycle < e.dequeueDoneC {
				if m.cfg.SQOutOfOrderDequeue {
					m.dequeuePastBlockedHead()
				}
				return
			}
			m.performStore(e)
			m.emit(obs.KindDequeue, obs.TrackMem, e.u, 0, "")
			m.popSQHead()
			return // next store begins dequeue next cycle
		}
		if e.u.stage != stRetired {
			return
		}
		// Fault site: store-queue data corrupted while the retired store
		// waits at the head — after younger loads may already have
		// forwarded the correct value.
		if fv, flipped := m.cfg.Faults.FlipValue(faults.SiteLSQ, m.cycle, e.u.storeVal); flipped {
			e.u.storeVal = fv
		}
		if !e.headSeen {
			e.headSeen = true
			m.changes++
			m.emit(obs.KindSQHead, obs.TrackMem, e.u, 0, "")
		}
		if m.cfg.SilentStores.Scheme != SSOff {
			switch e.ss {
			case ssReturned:
				if e.ssMatch {
					// Case A: silent store — consecutive silent stores
					// dequeue in the same cycle.
					m.elideStore(e)
					m.popSQHead()
					continue
				}
				// Case B: value mismatch — perform normally.
			case ssPending:
				// Case D: SS-Load has not returned by perform time.
				m.stats.SSLoadLate++
				m.emit(obs.KindSSLoadLate, obs.TrackMem, e.u, 0, "")
				e.ss = ssFailed
				m.changes++
			}
		}
		// Perform: the store needs its line in the (first-level) cache;
		// the access returns the fill latency.
		res := m.hier.Access(e.u.addr, e.u.storeVal, true)
		lat := int64(res.Latency)
		if res.L1Hit {
			lat = 1
		}
		// Fault site: one late fill/access on the store path.
		if d, delayed := m.cfg.Faults.FillDelay(m.cycle); delayed {
			lat += d
		}
		e.dequeuing = true
		e.dequeueDoneC = m.cycle + lat
		m.changes++
		if !res.L1Hit {
			m.emit(obs.KindFillRequest, obs.TrackMem, e.u, lat, "")
		}
		return
	}
}

// lsqCompare implements the SSLSQCompare scheme: when a store's address
// and data resolve, compare it against the youngest older in-flight store
// to the same location. No memory read happens; stores with no in-flight
// predecessor are simply not candidates.
func (m *Machine) lsqCompare(e *sqEntry) {
	var prev *sqEntry
	for _, o := range m.sq {
		if o.u.seq >= e.u.seq {
			break
		}
		if o.addrReady && o.u.addr == e.u.addr && o.u.memWidth == e.u.memWidth {
			prev = o
		}
	}
	if prev == nil {
		e.ss = ssFailed
		m.changes++
		return
	}
	e.ssValue = prev.u.storeVal
	e.ssLabels = prev.u.labels
	m.ssCompare(e, true)
}

// ssCompare resolves a silent-store check once the old value (ssValue)
// is known: read by an SS-Load, or taken from an older in-flight store
// under LSQ compare.
func (m *Machine) ssCompare(e *sqEntry, lsq bool) {
	e.ss = ssReturned
	m.changes++
	e.ssMatch = e.ssValue == e.u.storeVal
	// The elision check compares old value against new: if either side
	// is secret, whether the store dequeues silently — and hence its
	// timing and cache footprint — depends on a secret.
	m.cfg.Taint.ObserveSilentStore(m.cycle, e.u.pc, lsq, e.u.labels|e.ssLabels)
	detail := "match"
	if !e.ssMatch {
		m.stats.NonSilentChecks++
		detail = "mismatch"
	}
	m.emit(obs.KindSSLoadReturn, obs.TrackMem, e.u, int64(e.ssValue), detail)
}

// dequeuePastBlockedHead is the ablation of the in-order-dequeue design
// choice: while the head store waits for its fill, younger retired stores
// whose addresses do not overlap any older in-flight store may dequeue
// around it (same-address ordering is always preserved; one cache-
// touching perform per cycle).
func (m *Machine) dequeuePastBlockedHead() {
	performed := false
	keep := m.sq[:1] // the blocked head stays
	for i := 1; i < len(m.sq); i++ {
		e := m.sq[i]
		removed := false
		if e.u.stage == stRetired && !e.dequeuing {
			overlaps := false
			for _, o := range keep {
				if e.u.addr < o.u.addr+uint64(o.u.memWidth) && o.u.addr < e.u.addr+uint64(e.u.memWidth) {
					overlaps = true
					break
				}
			}
			if !overlaps {
				switch {
				case e.ss == ssReturned && e.ssMatch:
					m.elideStore(e)
					removed = true
				case !performed && m.hier.L1.Contains(e.u.addr):
					m.hier.Access(e.u.addr, e.u.storeVal, true)
					m.performStore(e)
					m.emit(obs.KindDequeue, obs.TrackMem, e.u, 0, "out-of-order")
					performed = true
					removed = true
				}
			}
		}
		if removed {
			m.freeSQ(e)
		} else {
			keep = append(keep, e)
		}
	}
	for i := len(keep); i < len(m.sq); i++ {
		m.sq[i] = nil
	}
	m.sq = keep
}

// elideStore dequeues a silent store without touching memory or the
// cache. The shadow write still happens: eliding the write is a timing
// decision, not an architectural one, and the location now provably
// holds the (equal) store value.
func (m *Machine) elideStore(e *sqEntry) {
	if st := m.cfg.Taint; st != nil {
		st.Mem.Write(e.u.addr, e.u.memWidth, e.u.labels)
	}
	m.stats.SilentStores++
	m.emit(obs.KindUopt, obs.TrackUopt, e.u, 0, "silent-store")
	m.emit(obs.KindDequeue, obs.TrackMem, e.u, 0, "silent")
}

// performStore writes the store's bytes to memory and updates taint.
func (m *Machine) performStore(e *sqEntry) {
	u := e.u
	m.mem.Write(u.addr, u.memWidth, u.storeVal)
	if st := m.cfg.Taint; st != nil {
		st.Mem.Write(u.addr, u.memWidth, u.labels)
	}
	if u.tainted {
		for i := 0; i < u.memWidth; i++ {
			m.taintedMem[u.addr+uint64(i)] = true
		}
	} else if len(m.taintedMem) > 0 {
		for i := 0; i < u.memWidth; i++ {
			delete(m.taintedMem, u.addr+uint64(i))
		}
	}
}

// aluSlot is one ALU µop issued this cycle, a potential host for one
// packed partner (operand packing).
type aluSlot struct {
	u      *uop
	packed bool
}

// liveFenceSeq returns the sequence number of the oldest fence that
// blocks younger memory µops, or math.MaxUint64 if none does. Completed
// fences are drained from the queue head at the top of issue; a stuck
// fence (dropped wakeup) deliberately does not block younger memory ops,
// matching the walk-order semantics this queue replaced.
func (m *Machine) liveFenceSeq() uint64 {
	for _, f := range m.fenceQ {
		if !f.stuck {
			return f.seq
		}
	}
	return math.MaxUint64
}

// issuePass is the state of one issue call shared across its candidates:
// the free ports, the ALU µops already issued (operand-packing hosts),
// and the two memory-ordering bounds, each computed once per call
// instead of once per candidate.
type issuePass struct {
	alu, md, ld, st int
	coOps           int
	aluIssued       []aluSlot
	// fenceSeq is liveFenceSeq(): a memory µop younger than it waits.
	fenceSeq uint64
	// unresolvedSeq is firstUnresolvedStore(): a load younger than it
	// may not read memory yet.
	unresolvedSeq uint64
}

// issue selects ready µops oldest-first subject to port availability and
// runs the optimization hooks: computation reuse, computation
// simplification, operand packing, and silent-store read-port stealing.
// Candidates come from the readyW bitset (or the reference linear scan
// of every dispatched µop), in program order.
func (m *Machine) issue() {
	if m.cfg.CheckInvariants {
		m.checkReady()
	}
	// Drain completed fences; the queue then holds only blocking ones.
	for len(m.fenceQ) > 0 {
		f := m.fenceQ[0]
		if f.stage != stDone && f.stage != stRetired {
			break
		}
		n := len(m.fenceQ)
		copy(m.fenceQ, m.fenceQ[1:])
		m.fenceQ[n-1] = nil
		m.fenceQ = m.fenceQ[:n-1]
		m.unref(f)
	}

	ps := issuePass{
		alu:           m.cfg.ALUPorts,
		md:            mulDivUnits,
		ld:            m.cfg.LoadPorts,
		st:            storePorts,
		aluIssued:     m.aluScratch[:0],
		fenceSeq:      m.liveFenceSeq(),
		unresolvedSeq: m.firstUnresolvedStore(),
	}

	// The SMT sibling's ready ops claim ALU ports first; a sibling op can
	// later release its claim by packing with a victim op (the paper's
	// active packing attack). It has one op ready per cycle, and the issue
	// arbiter never lets one thread claim every port (round-robin
	// fairness), so a one-ALU core leaves the sibling none.
	if m.cfg.CoTenant.Active && m.cfg.ALUPorts > 1 {
		ps.coOps = 1
		ps.alu--
	}

	if m.cfg.LinearScheduler {
		m.issueLinear(&ps)
	} else {
		m.issueReady(&ps)
	}
	m.aluScratch = ps.aluIssued

	// Silent stores: SS-Loads steal leftover load ports (read-port
	// stealing). Demand loads had priority above. An SS-Load that finds
	// no free port the cycle its store's address resolves gives up
	// (Figure 4 Case C) unless Retry is configured.
	if m.cfg.SilentStores.Scheme == SSReadPortStealing {
		for _, e := range m.sq {
			if !e.addrReady || e.ss != ssNone || e.dequeuing {
				continue
			}
			// The SS-Load reads memory, so it must not run ahead of older
			// stores with unresolved addresses.
			if ps.unresolvedSeq < e.u.seq {
				continue
			}
			if ps.ld == 0 {
				if !m.cfg.SilentStores.Retry {
					e.ss = ssFailed
					m.changes++
					m.stats.SSLoadNoPort++
					m.emit(obs.KindSSLoadNoPort, obs.TrackMem, e.u, 0, "")
				}
				continue
			}
			ps.ld--
			lat := m.hier.AccessSilent(e.u.addr).Latency
			val, _, _, _, _, lbl := m.readWithForward(e.u.addr, e.u.memWidth, e.u.seq)
			e.ss = ssPending
			e.ssReturnC = m.cycle + int64(lat)
			m.changes++
			e.ssValue = val
			e.ssLabels = lbl
			m.stats.SSLoadsIssued++
			m.emit(obs.KindUopt, obs.TrackUopt, e.u, int64(lat), "ss-load")
		}
	}
}

// issueOne tries to issue one candidate whose operands pass srcReady,
// consuming ports from ps. Both schedulers call it in program order.
func (m *Machine) issueOne(u *uop, ps *issuePass) {
	// A µop whose issue wakeup was dropped (fault injection) is never
	// scheduled again; once oldest it livelocks the machine.
	if u.stuck {
		return
	}
	// Memory operations may not issue past a FENCE that has not
	// completed.
	if (u.class == isa.ClassLoad || u.class == isa.ClassStore) && ps.fenceSeq < u.seq {
		return
	}
	// Fault site: drop this ready µop's issue wakeup, permanently.
	if m.cfg.Faults.DropWakeup(m.cycle) {
		u.stuck = true
		m.changes++
		if u.class == isa.ClassFence {
			// A stuck fence no longer blocks younger memory µops.
			ps.fenceSeq = m.liveFenceSeq()
		}
		return
	}
	ts := m.cfg.Taint

	switch u.class {
	case isa.ClassFence:
		// Issue when oldest and every OLDER store has drained. SQ slots
		// are allocated at rename, so younger stores fetched in the same
		// window already occupy entries — requiring a fully empty queue
		// deadlocks against them (they cannot issue past the fence).
		// The SQ is in program order: checking the head suffices.
		//
		// Fault site: re-introduce the pre-fix rule (wait for a fully
		// empty queue), which deadlocks against those younger slots.
		if m.cfg.Faults.FenceRequiresEmptySQ(m.cycle, len(m.sq)) {
			if m.robBuf[m.robHead] == u && len(m.sq) == 0 {
				m.startExec(u, 1)
			}
			break
		}
		if m.robBuf[m.robHead] == u && (len(m.sq) == 0 || m.sq[0].u.seq > u.seq) {
			m.startExec(u, 1)
		}

	case isa.ClassCSR:
		if ps.alu > 0 {
			ps.alu--
			m.startExec(u, 1)
			u.result = uint64(m.cycle)
			u.tainted = true
		}

	case isa.ClassALU:
		m.readSources(u)
		if m.tryReuse(u) {
			m.startExec(u, 1)
			u.result = m.aluResult(u)
			break
		}
		lat := aluLat
		simplified := false
		if m.cfg.Simplifier.Enabled() {
			lat, simplified = m.cfg.Simplifier.SimplifiedLatency(uopt.KindSimple, u.srcVals[0], u.srcVals[1], lat)
			if ts != nil && u.obsMask&obsSimplify == 0 {
				u.obsMask |= obsSimplify
				ts.ObserveSimplify(m.cycle, u.pc, "trivial_alu", u.labels)
			}
		}
		if ps.alu > 0 {
			ps.alu--
			m.startExec(u, lat)
			if simplified {
				m.emit(obs.KindUopt, obs.TrackUopt, u, int64(lat), "simplify")
			}
			u.result = m.aluResult(u)
			ps.aluIssued = append(ps.aluIssued, aluSlot{u: u})
			break
		}
		// Operand packing: share a port with an already-issued
		// narrow-operand ALU µop (pipeline compression), or with one
		// of the SMT sibling's ops — whose operands the attacker set
		// to be narrow precisely so that packing keys on the victim's.
		if m.cfg.Packing {
			packed := false
			for i := range ps.aluIssued {
				s := &ps.aluIssued[i]
				if s.packed || s.u.class != isa.ClassALU {
					continue
				}
				// The narrowness test reads both µops' operands; if
				// either side is secret, co-issue (and thus both
				// µops' timing) depends on it.
				if ts != nil && u.obsMask&obsPack == 0 {
					u.obsMask |= obsPack
					ts.ObservePack(m.cycle, u.pc, s.u.labels|u.labels)
				}
				if uopt.CanPack(s.u.srcVals[0], s.u.srcVals[1], u.srcVals[0], u.srcVals[1]) {
					s.packed = true
					packed = true
					break
				}
			}
			if !packed && ps.coOps > 0 {
				ct := m.cfg.CoTenant
				if ts != nil && u.obsMask&obsPack == 0 {
					u.obsMask |= obsPack
					ts.ObservePack(m.cycle, u.pc, u.labels)
				}
				if uopt.CanPack(ct.OperandA, ct.OperandB, u.srcVals[0], u.srcVals[1]) {
					ps.coOps--
					packed = true
				}
			}
			if packed {
				u.packed = true
				m.stats.Packed++
				m.emit(obs.KindUopt, obs.TrackUopt, u, 0, "pack")
				m.startExec(u, lat)
				if simplified {
					m.emit(obs.KindUopt, obs.TrackUopt, u, int64(lat), "simplify")
				}
				u.result = m.aluResult(u)
			}
		}

	case isa.ClassMul, isa.ClassDiv:
		m.readSources(u)
		if m.tryReuse(u) {
			m.startExec(u, 1)
			u.result = m.aluResult(u)
			break
		}
		if ps.md > 0 {
			lat := mulLat
			kind := uopt.KindMul
			if u.class == isa.ClassDiv {
				lat = divLat
				kind = uopt.KindDiv
			}
			if m.cfg.Simplifier.Enabled() {
				var simplified bool
				lat, simplified = m.cfg.Simplifier.SimplifiedLatency(kind, u.srcVals[0], u.srcVals[1], lat)
				if simplified {
					m.emit(obs.KindUopt, obs.TrackUopt, u, int64(lat), "simplify")
				}
				if ts != nil && u.obsMask&obsSimplify == 0 {
					u.obsMask |= obsSimplify
					ref := "zero_skip_mul"
					if kind == uopt.KindDiv {
						ref = "early_exit_div"
					}
					ts.ObserveSimplify(m.cycle, u.pc, ref, u.labels)
				}
			}
			ps.md--
			m.startExec(u, lat)
			u.result = m.aluResult(u)
		}

	case isa.ClassJump:
		if ps.alu > 0 {
			ps.alu--
			m.readSources(u)
			if u.inst.Op == isa.JALR && u.tainted {
				m.fail("indirect jump target derives from RDCYCLE at pc=%d", u.pc)
			}
			m.startExec(u, 1)
			u.result = uint64(u.pc + 1)
			u.tainted = false // the link value is architectural
		}

	case isa.ClassBranch:
		if ps.alu > 0 {
			ps.alu--
			m.readSources(u)
			// A wrong-path predicate is never architecturally resolved,
			// so the RDCYCLE check only applies on the correct path.
			if u.tainted && !u.wrongPath {
				m.fail("branch predicate derives from RDCYCLE at pc=%d", u.pc)
			}
			m.startExec(u, 1)
		}

	case isa.ClassLoad:
		if ps.ld == 0 {
			return
		}
		if ps.unresolvedSeq < u.seq {
			// The forwarding predictor's bet: consume an unresolved
			// older store's data now, verify at retire.
			if m.trySpecForward(u) {
				ps.ld--
			}
			return
		}
		if m.lqReadyLoad(u) {
			ps.ld--
		}

	case isa.ClassStore:
		if ps.st > 0 {
			ps.st--
			m.readSources(u)
			u.addr = u.inst.EffectiveAddr(u.srcVals[0])
			u.storeVal = u.srcVals[1]
			if ts := m.cfg.Taint; ts != nil {
				// Address-formation labels only (srcLabels(0)): a
				// constant-time kernel may store secret data to a
				// public slot, and u.labels would drag the data
				// labels in. No-op unless the scan armed
				// ObserveAddrs.
				ts.ObserveCacheAddr(m.cycle, u.pc, u.addr, u.srcLabels(0, ts))
			}
			m.startExec(u, m.storeAddrLat()) // AGU
		}
	}
}

// lqReadyLoad executes a load: forwarding check, cache access, value
// prediction bookkeeping. Returns true if a port was consumed.
func (m *Machine) lqReadyLoad(u *uop) bool {
	m.readSources(u)
	u.addr = u.inst.EffectiveAddr(u.srcVals[0])
	// u.labels here is exactly the address-formation label set (the data
	// labels join below, after the read): the contract checker's
	// cache-address observation point. A wrong-path load may fire both
	// this and the wrong-path observer — they answer different contracts.
	m.cfg.Taint.ObserveCacheAddr(m.cycle, u.pc, u.addr, u.labels)
	if u.wrongPath {
		// At this point u.labels is exactly the address-formation label
		// set. The access below changes real cache state even though the
		// µop will be squashed — a squashed leak is still a leak.
		m.cfg.Taint.ObserveWrongPathLoad(m.cycle, u.pc, u.labels)
	}
	val, full, _, memTaint, spec, memLabels := m.readWithForward(u.addr, u.memWidth, u.seq)
	val = isa.LoadExtend(u.inst.Op, val)
	var lat int
	if full {
		lat = forwardLat
		m.stats.LoadsForwarded++
		m.emit(obs.KindForward, obs.TrackMem, u, int64(lat), "")
		// A completed full forward trains the forwarding predictor: this
		// load PC has a history of hitting in-flight store data.
		m.stlfBump(u.pc)
	} else {
		res := m.hier.Access(u.addr, val, false)
		lat = res.Latency
		// Fault site: one late fill/access on the load path.
		if d, delayed := m.cfg.Faults.FillDelay(m.cycle); delayed {
			lat += int(d)
		}
		m.stats.LoadsFromCache++
	}
	m.startExec(u, lat)
	u.result = val
	if memTaint {
		u.tainted = true
	}
	// Forwarding from a store whose data came from an unverified
	// speculative forward passes that speculation on: the value may be
	// wrong until the older forward verifies, and its replay squashes
	// this load too.
	if spec {
		u.specData = true
	}
	u.labels |= memLabels
	return true
}

// readSources latches operand values and taint at issue time.
func (m *Machine) readSources(u *uop) {
	u.srcVals[0] = u.srcValue(0, &m.committed)
	u.srcVals[1] = u.srcValue(1, &m.committed)
	if u.t.immSrc2 {
		u.srcVals[1] = u.t.immVal
	}
	u.tainted = u.srcTainted(0, &m.committedTaint) || u.srcTainted(1, &m.committedTaint)
	// A consumer of a speculatively forwarded value is itself speculative
	// data until the forward verifies at retire: its result (and a branch
	// direction computed from it) may diverge from the oracle and be
	// squashed rather than failed.
	if (u.prod[0] != nil && u.prod[0].specData) || (u.prod[1] != nil && u.prod[1].specData) {
		u.specData = true
	}
	// Likewise a consumer of an unverified value prediction, read through
	// srcValue's predictedVal.
	for _, p := range u.prod {
		if p != nil && (p.predicted || p.predData) {
			u.predData = true
		}
	}
	if st := m.cfg.Taint; st != nil {
		// Uses() maps immediate operands to X0, whose labels are always
		// empty, so the plain union is the immediate-substitution rule.
		u.labels = u.srcLabels(0, st) | u.srcLabels(1, st)
		if st.BreakALU &&
			(u.class == isa.ClassALU || u.class == isa.ClassMul || u.class == isa.ClassDiv) {
			u.labels = 0
		}
	}
}

// aluResult computes the result of an ALU-family µop from latched sources.
func (m *Machine) aluResult(u *uop) uint64 {
	return isa.EvalALU(u.inst.Op, u.srcVals[0], u.srcVals[1])
}

// tryReuse consults the computation-reuse buffer; a hit skips the
// functional unit (no port, single-cycle latency).
func (m *Machine) tryReuse(u *uop) bool {
	if m.cfg.Reuse == uopt.ReuseOff {
		return false
	}
	if m.cfg.Reuse == uopt.SchemeSv {
		// Sv keys lookups on operand *values*; Sn compares only register
		// names and never observes the secret (Section VI-A3's safe tweak),
		// so it deliberately has no observer. The trigger condition is
		// re-evaluated every cycle the µop waits for a port, but the
		// dependence on the secret is a per-instance fact — obsMask
		// dedupes the event.
		if st := m.cfg.Taint; st != nil && u.obsMask&obsReuse == 0 {
			u.obsMask |= obsReuse
			st.ObserveReuse(m.cycle, u.pc, u.labels)
		}
	}
	if _, ok := m.reuse.Lookup(u.pc, u.srcVals[0], u.srcVals[1], uint8(u.t.src1), uint8(u.t.src2)); ok {
		u.reused = true
		m.stats.ReuseHits++
		m.emit(obs.KindUopt, obs.TrackUopt, u, 0, "reuse")
		return true
	}
	return false
}

func (m *Machine) startExec(u *uop, latency int) {
	if latency < 1 {
		latency = 1
	}
	u.stage = stExecuting
	u.issueC = m.cycle
	u.doneC = m.cycle + int64(latency)
	m.iqCount--
	m.schedToExec(u)
	// The fused-pair wake point: a load fused with this ADDI sits in the
	// next slot and may issue later in this same pass.
	if m.cfg.FuseAddiLoad && u.inst.Op == isa.ADDI {
		if v := m.robBuf[(u.slot+1)&(len(m.robBuf)-1)]; v != nil && v.fusedProd == u {
			m.wakeSlot(v.slot)
		}
	}
	// Operands were latched (readSources) or are not needed; the producer
	// references drop here so retired producers can recycle.
	m.releaseProds(u)
	m.emit(obs.KindIssue, obs.TrackIssue, u, int64(latency), "")
}

// firstUnresolvedStore returns the sequence number of the oldest store
// whose address is still unknown, or math.MaxUint64 if every queued store
// has resolved. A memory read by a µop younger than it must wait
// (conservative memory disambiguation).
func (m *Machine) firstUnresolvedStore() uint64 {
	for _, e := range m.sq {
		if !e.addrReady {
			return e.u.seq
		}
	}
	return math.MaxUint64
}
