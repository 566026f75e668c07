package pipeline

import (
	"pandora/internal/isa"
	"pandora/internal/obs"
)

// fetchAndDispatch brings up to FetchWidth µops into the backend per
// cycle: replayed µops first (after a value-misprediction squash), then
// fresh instructions from the control-flow oracle. Decode comes from the
// per-PC template cache built at Run start; fetch only stamps the
// per-dynamic-instance facts into a pooled µop. Direction prediction is
// static BTFN; a mispredicted branch or an indirect jump blocks fetch
// until it resolves, plus the redirect penalty.
func (m *Machine) fetchAndDispatch() {
	if m.fetchBlocked != nil {
		u := m.fetchBlocked
		if u.stage == stDone || u.stage == stRetired {
			if resume := u.doneC + int64(m.cfg.BranchPenalty); resume > m.fetchResumeC {
				m.fetchResumeC = resume
			}
			m.fetchBlocked = nil
			m.unref(u)
		} else {
			return
		}
	}
	if m.cycle < m.fetchResumeC {
		return
	}

	for n := 0; n < m.cfg.FetchWidth; n++ {
		var u *uop
		fromReplay := false
		if len(m.replay) > 0 {
			u = m.replay[0]
			fromReplay = true
		} else if m.specBranch != nil {
			// Wrong-path mode: fetch follows the predicted path of the
			// unresolved mispredicted branch. The oracle is not stepped.
			u = m.newWrongPathUop()
			if u == nil {
				return
			}
		} else {
			if m.oracleHalted || m.haltFetched {
				return
			}
			pc := m.oracle.PC
			if pc < 0 || pc >= int64(len(m.prog)) {
				m.fail("fetch pc %d out of program [0,%d)", pc, len(m.prog))
				return
			}
			// Check resources against the decoded shape before committing
			// to the oracle step.
			if !m.resourcesFor(&m.tmpl[pc]) {
				return
			}
			u = m.newUopFromOracle()
			if u == nil {
				return
			}
		}
		if fromReplay {
			if !m.resourcesFor(u.t) {
				return
			}
			m.replay[0] = nil
			m.replay = m.replay[1:]
		}

		m.dispatch(u)
		if u.mispredicted {
			// A branch re-dispatched from the replay queue must not re-enter
			// wrong-path mode: its correct-path successors are already queued
			// right behind it, and dispatching them during wrong-path fetch
			// would break the speculation discipline (and they would only be
			// re-squashed at resolution). Replayed mispredicts take the
			// legacy redirect stall instead.
			if m.specCanWrongPath(u) && !fromReplay {
				m.beginWrongPath(u)
				continue // same-cycle fetch proceeds down the predicted path
			}
			m.fetchBlocked = u
			u.refs++
			return
		}
		if u.class == isa.ClassHalt {
			m.haltFetched = true
			return
		}
	}
}

// resourcesFor reports whether the backend can accept an instruction of
// this shape right now, counting stall causes.
func (m *Machine) resourcesFor(t *uopTemplate) bool {
	if m.robN >= m.cfg.ROBSize {
		m.stats.RenameStallROB++
		return false
	}
	if t.class != isa.ClassHalt && m.iqCount >= m.cfg.IQSize {
		m.stats.RenameStallIQ++
		return false
	}
	if t.class == isa.ClassLoad && m.lqCount >= m.cfg.LQSize {
		m.stats.RenameStallLQ++
		return false
	}
	if t.class == isa.ClassStore && len(m.sq) >= m.cfg.SQSize {
		m.stats.RenameStallSQ++
		return false
	}
	if t.writesReg && m.prfFree <= 0 {
		m.stats.RenameStallPRF++
		return false
	}
	return true
}

// newUopFromOracle steps the functional oracle one instruction and wraps
// the outcome in a pooled µop carrying the correct-path facts.
func (m *Machine) newUopFromOracle() *uop {
	t := &m.tmpl[m.oracle.PC]
	u := m.allocUop()
	u.t = t
	u.pc = t.pc
	u.inst = t.inst
	u.class = t.class
	u.memWidth = t.memWidth

	if t.class == isa.ClassBranch {
		u.oracleTaken = isa.Taken(t.inst.Op, m.oracle.Regs[t.inst.Rs1], m.oracle.Regs[t.inst.Rs2])
	}

	halted, err := m.oracle.Step(m.prog)
	if err != nil {
		m.freeUop(u)
		m.fail("oracle: %v", err)
		return nil
	}
	if halted {
		m.oracleHalted = true
	}
	u.nextPC = m.oracle.PC
	if t.writesReg {
		u.oracleResult = m.oracle.Regs[t.dest]
	}

	switch t.class {
	case isa.ClassBranch:
		// Direction prediction: static BTFN (decoded once into the
		// template) or the bimodal table when configured.
		u.predictedTaken = m.predictTaken(t)
		// Fault site: a mispredict storm forces correctly predicted
		// conditional branches to predict against the architectural
		// outcome.
		if m.cfg.Faults.MispredictStorm(m.cycle, u.predictedTaken == u.oracleTaken) {
			u.predictedTaken = !u.oracleTaken
		}
		u.mispredicted = u.predictedTaken != u.oracleTaken
	case isa.ClassJump:
		// Direct jumps (JAL) are predicted perfectly; indirect jumps
		// (JALR) always redirect — the toy frontend has no BTB.
		u.mispredicted = t.alwaysRedirect
	}
	return u
}

// dispatch renames u and inserts it into the ROB (and LQ/SQ bookkeeping).
// Resources were checked by the caller.
func (m *Machine) dispatch(u *uop) {
	m.seq++
	u.seq = m.seq
	u.fetchC = m.cycle
	u.stage = stDispatched
	m.stats.Fetched++
	if u.replayed == 0 {
		// Replayed µops re-dispatch from the replay queue without passing
		// through fetch again.
		m.emit(obs.KindFetch, obs.TrackFetch, u, 0, "")
	}
	m.emit(obs.KindRename, obs.TrackRename, u, 0, "")
	if u.mispredicted && u.class == isa.ClassBranch {
		m.stats.BranchMispredicts++
	}

	// Capture producers for the source registers before installing this
	// µop as a producer itself (self-dependencies read the older writer).
	t := u.t
	if t.src1 != isa.X0 {
		if p := m.producer[t.src1]; p != nil {
			u.prod[0] = p
			p.refs++
		}
	}
	if t.src2 != isa.X0 {
		if p := m.producer[t.src2]; p != nil {
			u.prod[1] = p
			p.refs++
		}
	}

	if t.writesReg {
		m.prfFree--
		u.renamed = true
		m.producer[t.dest] = u
	}

	m.robPush(u)
	if m.cfg.CheckInvariants {
		m.chk.rename(u)
	}
	switch u.class {
	case isa.ClassHalt:
		// HALT needs no execution resources; it is complete on arrival
		// and retires when oldest.
		u.stage = stExecuting
		u.doneC = m.cycle
		m.markExecuting(u)
	case isa.ClassLoad:
		m.markDispatched(u)
		m.iqCount++
		m.lqCount++
		// µ-op fusion: an ADDI dispatched immediately before this load,
		// producing its base register, issues fused with it.
		if m.cfg.FuseAddiLoad && u.prod[0] != nil {
			p := u.prod[0]
			if p.inst.Op == isa.ADDI && p.seq == u.seq-1 && p.stage == stDispatched {
				u.fusedProd = p
			}
		}
		// Wrong-path loads are never value-predicted: a wrong-path µop
		// must not initiate a value squash (its "misprediction" has no
		// architectural meaning) nor enter the replay queue.
		if m.cfg.Predictor != nil && !u.wrongPath {
			if v, ok := m.cfg.Predictor.Predict(u.pc); ok {
				u.predicted = true
				u.wasPredicted = true
				u.predictedVal = v
				m.emit(obs.KindUopt, obs.TrackUopt, u, 0, "value-predict")
			}
		}
	case isa.ClassStore:
		m.markDispatched(u)
		m.iqCount++
		m.sq = append(m.sq, m.allocSQ(u))
	case isa.ClassFence:
		m.markDispatched(u)
		m.iqCount++
		// The fence queue is the issue stage's O(1) stand-in for the old
		// walk-order fencePending flag: memory ops are blocked exactly
		// while an older, non-stuck fence is dispatched or executing.
		m.fenceQ = append(m.fenceQ, u)
		u.refs++
	default:
		m.markDispatched(u)
		m.iqCount++
	}
	if u.stage == stDispatched {
		m.subscribe(u)
	}
}
