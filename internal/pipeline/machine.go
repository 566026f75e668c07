package pipeline

import (
	"fmt"

	"pandora/internal/cache"
	"pandora/internal/emu"
	"pandora/internal/faults"
	"pandora/internal/isa"
	"pandora/internal/mem"
	"pandora/internal/obs"
	"pandora/internal/taint"
	"pandora/internal/uopt"
)

// Machine is one out-of-order core attached to a cache hierarchy and data
// memory. Create with New, run one program with Run. A Machine runs one
// program per Run call but may Run many programs in turn: Run resets the
// architectural registers and the in-flight state, while the
// microarchitectural state (caches, predictors, reuse buffers, taint
// shadow memory) persists across runs, which is exactly what
// cross-program attacks rely on. Reset is the other boundary: it returns
// the machine to the power-on state New builds, possibly under another
// Config, memory and hierarchy, and keeps only buffers, so a caller
// running many short independent programs builds one Machine.
type Machine struct {
	cfg  Config
	mem  *mem.Memory
	hier *cache.Hierarchy

	prog         isa.Program
	oracle       *emu.Machine
	oracleHalted bool

	cycle int64
	seq   uint64

	// lastRetiredSeq is the most recently retired µop's sequence number,
	// for the in-order-retire invariant check.
	lastRetiredSeq uint64

	// The ROB is a power-of-two ring (see ring.go): robBuf[robHead] is the
	// oldest in-flight µop, robN the occupancy. dispW/readyW/execW are the
	// per-slot scheduler bitsets issue and complete iterate instead of
	// walking the whole buffer; consW holds one consumer mask per slot
	// (len(dispW) words each), the edges completion wakes along. slab
	// backs every per-slot bitmap (initROB).
	robBuf  []*uop
	slab    []uint64
	robHead int
	robN    int
	dispW   []uint64
	readyW  []uint64
	execW   []uint64
	consW   []uint64
	// minDoneC is a lower bound on the doneC of every executing µop:
	// complete has nothing to do while the cycle is below it.
	minDoneC int64
	// changes counts machine-state changes: every ring helper, a set
	// readyW bit, each unref and store-queue release, the store-queue
	// entry transitions, a dropped wakeup and the fetch unblock bump it.
	// A cycle that leaves it (and the injector's firing count) unmoved
	// changed nothing, and Run skips to the next timed event.
	changes uint64
	// stall is the rename-stall counter resourcesFor last bumped, at
	// cycle stallC; skipIdle charges skipped cycles to it. skipped counts
	// the cycles skipIdle jumped over (pipeline.idle_skipped).
	stall   *uint64
	stallC  int64
	skipped int64
	// chk is the incremental invariant checkers' state (invariant.go).
	chk invChecker

	sq      []*sqEntry
	lqCount int
	iqCount int

	// fenceQ holds dispatched-or-executing FENCEs in program order — the
	// O(1) stand-in for the old walk-order fencePending scan (entries are
	// refcounted, drained at issue, truncated at squash).
	fenceQ []*uop

	// tmpl is the per-PC decode cache, rebuilt by prepareProgram at the
	// top of every Run (see template.go).
	tmpl []uopTemplate

	// Free lists and per-cycle scratch buffers (see pool.go). All reuse
	// their backing arrays so the steady-state cycle loop allocates
	// nothing.
	uopPool []*uop
	sqPool  []*sqEntry
	// Total objects ever handed out by the pools. After a clean run every
	// object is back in its free list, so len(pool) == allocated — the
	// leak-detection invariant alloc_test pins across abort paths.
	uopAllocated    int
	sqAllocated     int
	issueScratch    []*uop
	completeScratch []*uop
	squashScratch   []*uop
	aluScratch      []aluSlot
	replaySwap      []*uop

	producer       [isa.NumRegs]*uop
	committed      [isa.NumRegs]uint64
	committedTaint [isa.NumRegs]bool

	prfFree int
	vf      *uopt.ValueFile

	fetchBlocked *uop  // unresolved mispredicted branch / indirect jump
	fetchResumeC int64 // earliest cycle fetch may proceed
	replay       []*uop

	// Speculation state (Config.Speculation; see spec.go). specBranch is
	// the outstanding mispredicted branch fetch is running wrong-path
	// behind (counted reference, like fetchBlocked); wrongPathPC is the
	// next predicted-path fetch PC (-1 when wrong-path fetch has run off
	// the program); wrongPathN counts wrong-path µops in flight. btable
	// holds the bimodal 2-bit direction counters, stlf the per-PC
	// forwarding-confidence counters — both persist across Runs, as real
	// predictor state does.
	specBranch  *uop
	wrongPathPC int64
	wrongPathN  int
	btable      []uint8
	stlf        []uint8

	haltFetched bool
	haltRetired bool

	taintedMem map[uint64]bool // byte-granular RDCYCLE-derived memory

	// retired is the CoreDump's retire history: a ring holding the last
	// RetireHistory of the nRetired µops this Run retired.
	retired  [RetireHistory]retireRec
	nRetired uint

	// stats holds the raw counters; only this package increments them.
	// External readers go through Stats() or the Metrics() registry.
	stats Stats
	// probe is Config.Probe, cached for the per-event nil check.
	probe obs.Probe
	// reg names every counter (pipeline, cache hierarchy). It is built by
	// the first Metrics call: Run reads its two numbers from the fields.
	reg *obs.Registry

	err error
}

// Stats returns a copy of the accumulated counters — the compatibility
// getter for code (diffcheck, the fault campaign) that compares whole
// Stats values; new code prefers the named Metrics() registry.
func (m *Machine) Stats() Stats { return m.stats }

// Metrics returns the machine's counter registry: every pipeline.* field
// plus the attached hierarchy's l1.*/l2.*/hier.* counters, behind
// Snapshot/Delta. The registry is built on the first call.
func (m *Machine) Metrics() *obs.Registry {
	if m.reg == nil {
		m.registerMetrics()
	}
	return m.reg
}

// Cycle returns the current simulated cycle (monotone across Runs).
func (m *Machine) Cycle() int64 { return m.cycle }

// registerMetrics names every counter in the registry. The hot path
// keeps its raw field increments; the registry reads them at snapshot
// time through these closures.
func (m *Machine) registerMetrics() {
	r := obs.NewRegistry()
	r.CounterInt64("pipeline.cycles", &m.stats.Cycles)
	r.CounterInt64("pipeline.idle_skipped", &m.skipped)
	r.CounterUint64("pipeline.retired", &m.stats.Retired)
	r.CounterUint64("pipeline.fetched", &m.stats.Fetched)
	r.CounterUint64("pipeline.branch_mispredicts", &m.stats.BranchMispredicts)
	r.CounterUint64("pipeline.value_squashes", &m.stats.ValueSquashes)
	r.CounterUint64("pipeline.squashed_uops", &m.stats.SquashedUops)
	r.CounterUint64("pipeline.wrong_path_fetched", &m.stats.WrongPathFetched)
	r.CounterUint64("pipeline.mispredict_squashes", &m.stats.MispredictSquashes)
	r.CounterUint64("pipeline.spec_forwards", &m.stats.SpecForwards)
	r.CounterUint64("pipeline.spec_forward_replays", &m.stats.SpecForwardReplays)
	r.CounterUint64("pipeline.loads_forwarded", &m.stats.LoadsForwarded)
	r.CounterUint64("pipeline.loads_from_cache", &m.stats.LoadsFromCache)
	r.CounterUint64("pipeline.silent_stores", &m.stats.SilentStores)
	r.CounterUint64("pipeline.non_silent_checks", &m.stats.NonSilentChecks)
	r.CounterUint64("pipeline.ssload_no_port", &m.stats.SSLoadNoPort)
	r.CounterUint64("pipeline.ssload_late", &m.stats.SSLoadLate)
	r.CounterUint64("pipeline.ssloads_issued", &m.stats.SSLoadsIssued)
	r.CounterUint64("pipeline.reuse_hits", &m.stats.ReuseHits)
	r.CounterUint64("pipeline.packed", &m.stats.Packed)
	r.CounterUint64("pipeline.rename_stall.prf", &m.stats.RenameStallPRF)
	r.CounterUint64("pipeline.rename_stall.sq", &m.stats.RenameStallSQ)
	r.CounterUint64("pipeline.rename_stall.rob", &m.stats.RenameStallROB)
	r.CounterUint64("pipeline.rename_stall.iq", &m.stats.RenameStallIQ)
	r.CounterUint64("pipeline.rename_stall.lq", &m.stats.RenameStallLQ)
	m.hier.RegisterMetrics(r)
	m.reg = r
}

// emit publishes one probe event for µop u (nil for machine-level
// events). The nil-probe path is a single branch and allocation-free.
func (m *Machine) emit(k obs.Kind, tr obs.Track, u *uop, arg int64, detail string) {
	if m.probe == nil {
		return
	}
	ev := obs.Event{Cycle: m.cycle, Kind: k, Track: tr, Arg: arg, Detail: detail, PC: -1}
	if u != nil {
		ev.Seq = u.seq
		ev.PC = u.pc
		ev.Addr = u.addr
	}
	m.probe.Emit(ev)
}

// New builds a machine. mem and hier must be non-nil; the caller owns both
// and may pre-populate memory and cache state (preconditioning).
func New(cfg Config, memory *mem.Memory, hier *cache.Hierarchy) (*Machine, error) {
	m := new(Machine)
	if err := m.Reset(cfg, memory, hier); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset returns m to exactly the state New(cfg, memory, hier) builds; New
// is Reset on a zero Machine. Whatever earlier runs left behind — in
// flight after an abort, trained into the predictor tables, counted in
// the stats — is gone. Only buffers carry over, emptied or cleared: the
// µop and store-queue pools, the decode cache, the ROB ring and its
// bitmap slab, the per-cycle scratch, the RDCYCLE-taint map, the value
// file, the predictor tables and the oracle (Run re-clones its memory).
// Every other field starts from its zero value, as in New. On error m is
// unchanged.
//
// memory and hier are taken as they are: a caller that wants them at
// power-on too resets them first (mem.Memory.Reset,
// cache.Hierarchy.Reset).
func (m *Machine) Reset(cfg Config, memory *mem.Memory, hier *cache.Hierarchy) error {
	if memory == nil {
		return fmt.Errorf("pipeline: nil memory")
	}
	if err := cfg.validate(hier); err != nil {
		return err
	}
	m.reclaimInFlight()
	vf := m.vf
	if vf == nil {
		vf = uopt.NewValueFile(cfg.RFC)
	} else {
		vf.Reset(cfg.RFC)
	}
	taintedMem := m.taintedMem
	if taintedMem == nil {
		taintedMem = make(map[uint64]bool)
	}
	clear(taintedMem)
	*m = Machine{
		cfg:             cfg,
		mem:             memory,
		hier:            hier,
		probe:           cfg.Probe,
		oracle:          m.oracle,
		robBuf:          m.robBuf,
		slab:            m.slab,
		sq:              m.sq[:0],
		fenceQ:          m.fenceQ[:0],
		replay:          m.replay[:0],
		tmpl:            m.tmpl[:0],
		uopPool:         m.uopPool,
		sqPool:          m.sqPool,
		uopAllocated:    m.uopAllocated,
		sqAllocated:     m.sqAllocated,
		issueScratch:    m.issueScratch[:0],
		completeScratch: m.completeScratch[:0],
		squashScratch:   m.squashScratch[:0],
		aluScratch:      m.aluScratch[:0],
		replaySwap:      m.replaySwap[:0],
		btable:          m.btable[:0],
		stlf:            m.stlf[:0],
		taintedMem:      taintedMem,
		vf:              vf,
	}
	m.initROB()
	if cfg.Speculation != nil {
		m.btable = counters(m.btable, 1<<bimodalBits)
		m.stlf = counters(m.stlf, 1<<stlfBits)
		m.wrongPathPC = -1
	}
	if cfg.Probe != nil {
		// One probe observes everything attached to this core: both cache
		// levels and the prefetch path (stamped with the core's clock),
		// taint leak events, and fault firings.
		hier.SetProbe(cfg.Probe, m.Cycle)
		if cfg.Taint != nil {
			cfg.Taint.Probe = cfg.Probe
		}
		if cfg.Faults != nil {
			cfg.Faults.SetProbe(cfg.Probe)
		}
	}
	// Seed the physical register file: the 32 architectural registers hold
	// value 0 at reset. Under RFC they collapse onto a shared zero
	// register, freeing the rest — a real effect of value-sharing renames.
	m.prfFree = cfg.PhysRegs
	for i := 0; i < isa.NumRegs; i++ {
		m.prfFree--
		if m.vf.Produce(0) {
			m.prfFree++
		}
	}
	return nil
}

// counters returns an n-entry predictor table of zeroed 2-bit counters,
// reusing buf's array when it is large enough.
func counters(buf []uint8, n int) []uint8 {
	if cap(buf) < n {
		return make([]uint8, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// MustNew is New that panics on error.
func MustNew(cfg Config, memory *mem.Memory, hier *cache.Hierarchy) *Machine {
	m, err := New(cfg, memory, hier)
	if err != nil {
		panic(err)
	}
	return m
}

// Hierarchy returns the attached cache hierarchy.
func (m *Machine) Hierarchy() *cache.Hierarchy { return m.hier }

// Memory returns the attached data memory.
func (m *Machine) Memory() *mem.Memory { return m.mem }

// Reg returns the committed architectural value of r after a Run.
func (m *Machine) Reg(r isa.Reg) uint64 { return m.committed[r] }

// Result summarizes one Run.
type Result struct {
	Cycles  int64
	Retired uint64
	Stats   Stats
}

// Run executes prog to completion (HALT retired and store queue drained)
// and returns the cycle count. Architectural registers start at zero and
// the entry point is instruction 0. Timing state accumulated by earlier
// runs (cache contents, predictor state) is preserved.
func (m *Machine) Run(prog isa.Program) (Result, error) {
	m.reclaimInFlight()
	if len(prog) == 0 {
		// After the reclaim, so the dump shows an idle machine rather
		// than what an aborted previous run left in flight.
		return Result{}, m.supervised(ReasonPipelineError, fmt.Errorf("pipeline: empty program"))
	}
	m.prog = prog
	// The oracle runs on a copy-on-write image of data memory. Reuse the
	// oracle machine and its clone across runs — sweep-style attacks call
	// Run thousands of times, and re-cloning into the existing image is
	// allocation-free in steady state.
	if m.oracle == nil {
		m.oracle = emu.New(m.mem.Clone())
	} else {
		m.oracle.Reset()
		m.mem.CloneInto(m.oracle.Mem)
	}
	m.oracleHalted = false
	m.haltFetched = false
	m.haltRetired = false
	m.chk.restart()
	m.prepareProgram(prog)
	m.lqCount, m.iqCount = 0, 0
	m.fetchResumeC = 0
	m.producer = [isa.NumRegs]*uop{}
	// Architectural registers reset to zero between runs, with PRF
	// accounting for the overwritten values.
	for r := 1; r < isa.NumRegs; r++ {
		if m.committed[r] != 0 {
			if m.vf.Release(m.committed[r]) {
				m.prfFree++
			}
			m.prfFree--
			if m.vf.Produce(0) {
				m.prfFree++
			}
			m.committed[r] = 0
		}
		m.committedTaint[r] = false
	}
	if m.cfg.Taint != nil {
		// Architectural shadow resets with the architectural registers;
		// shadow memory and the predictor-table shadow persist like their
		// counterparts.
		m.cfg.Taint.ResetRun()
	}
	m.err = nil

	startCycle, startRetired := m.cycle, m.stats.Retired
	m.emit(obs.KindRunStart, obs.TrackRetire, nil, 0, "")
	m.nRetired = 0
	// The supervisor's progress marks: the retire count, and the cycle
	// a store last left the queue (see WatchdogWindow).
	wdRetired := m.stats.Retired
	wdNext := m.cycle + WatchdogWindow
	lastDrainC := m.cycle
	// The cancellation checkpoint keeps its flag in a local so the nil
	// path is one register compare per cycle, and the armed path one
	// masked compare plus an atomic load every cancelCheckInterval
	// cycles — both allocation-free.
	cancel := m.cfg.Cancel
	// The reference scheduler ticks every cycle; the default skips the
	// cycles after one that changed nothing (see skipIdle).
	skip := !m.cfg.LinearScheduler
	for {
		m.cycle++
		if cancel != nil && m.cycle&(cancelCheckInterval-1) == 0 && cancel.Cancelled() {
			return m.finishRun(startCycle, startRetired), ErrCancelled
		}
		changes := m.changes + uint64(m.cfg.Faults.Firings())
		if m.cfg.Faults != nil {
			m.faultTick()
		}
		m.retire()
		m.complete()
		sqLen := len(m.sq)
		m.sqTick()
		if len(m.sq) < sqLen {
			lastDrainC = m.cycle
		}
		m.issue()
		m.fetchAndDispatch()
		if m.cfg.CheckInvariants {
			m.checkInvariants()
		}
		if m.err != nil {
			return m.finishRun(startCycle, startRetired), m.supervised(ReasonPipelineError, m.err)
		}
		if m.haltRetired && len(m.sq) == 0 {
			break
		}
		if m.stats.Retired != wdRetired {
			wdRetired = m.stats.Retired
			wdNext = m.cycle + WatchdogWindow
		} else if m.cycle >= wdNext {
			if !m.drainPending() || m.cycle-lastDrainC >= WatchdogWindow {
				return m.finishRun(startCycle, startRetired), &StallError{Reason: ReasonWatchdog, Dump: m.coreDump(ReasonWatchdog)}
			}
			// Retirement waits on a store queue that is still
			// draining: hold off for a window past the latest drain.
			wdNext = lastDrainC + WatchdogWindow
		}
		if m.cycle-startCycle > m.cfg.MaxCycles {
			err := fmt.Errorf("pipeline: exceeded MaxCycles=%d (livelock?)", m.cfg.MaxCycles)
			return m.finishRun(startCycle, startRetired), m.supervised(ReasonMaxCycles, err)
		}
		if skip && changes == m.changes+uint64(m.cfg.Faults.Firings()) {
			m.skipIdle(wdNext, m.cfg.MaxCycles-(m.cycle-startCycle), cancel != nil)
		}
	}
	if m.cfg.CheckInvariants {
		// The per-cycle cache check covers the sets changed since it
		// last passed; close the run with a sweep of every set.
		if err := m.hier.CheckInvariants(); err != nil {
			m.fail("invariant: %v", err)
			return m.finishRun(startCycle, startRetired), m.supervised(ReasonPipelineError, m.err)
		}
	}
	return m.finishRun(startCycle, startRetired), nil
}

// finishRun closes out one Run: fold the elapsed cycles into the stats
// and build the Result from the counters' growth. Error paths return the
// partial Result alongside the error: cycle count and stats are exactly
// what a post-mortem needs, and discarding them on MaxCycles was hiding
// how far a livelocked run got. (A method, not a closure in Run — the
// closure captured the receiver and allocated once per Run.)
func (m *Machine) finishRun(startCycle int64, startRetired uint64) Result {
	elapsed := m.cycle - startCycle
	m.stats.Cycles += elapsed
	m.emit(obs.KindRunEnd, obs.TrackRetire, nil, elapsed, "")
	return Result{Cycles: elapsed, Retired: m.stats.Retired - startRetired, Stats: m.stats}
}

// skipIdle follows a cycle that changed no machine state. Every stage
// reads only that state and the clock, and the clock matters only at
// timed events: the earliest in-flight doneC (minDoneC), the fetch
// redirect's end, a pending SS-Load's return, the head store's fill, and
// a transient fault's trigger. Until the earliest of them every cycle
// repeats this one, so the clock jumps to the cycle before it. The jump
// stops short of the watchdog's wdNext, of the MaxCycles bound (budget
// cycles remain before it trips) and, when cancellable, of the next
// cancellation checkpoint, so each fires on the cycle it would have.
// A rename stall this cycle would have recurred on each skipped cycle,
// so its counter is charged for them.
func (m *Machine) skipIdle(wdNext, budget int64, cancellable bool) {
	next := min(m.minDoneC, wdNext, m.cfg.Faults.NextTrigger(m.cycle))
	if m.fetchResumeC > m.cycle {
		next = min(next, m.fetchResumeC)
	}
	if len(m.sq) > 0 {
		if e := m.sq[0]; e.dequeuing {
			next = min(next, e.dequeueDoneC)
		}
		if m.cfg.SilentStores != nil {
			for _, e := range m.sq {
				if e.ss == ssPending {
					next = min(next, e.ssReturnC)
				}
			}
		}
	}
	if cancellable {
		next = min(next, m.cycle|(cancelCheckInterval-1)+1)
	}
	n := min(next-1-m.cycle, budget)
	if n <= 0 {
		return
	}
	if m.stallC == m.cycle {
		*m.stall += uint64(n)
	}
	m.cycle += n
	m.skipped += n
}

// drainPending reports whether retirement waits on stores still queued:
// halt has retired, or the oldest µop is a fence (it issues only once
// every older store has left) with an older store queued.
func (m *Machine) drainPending() bool {
	return len(m.sq) > 0 && (m.haltRetired || m.robN > 0 &&
		m.robBuf[m.robHead].class == isa.ClassFence && m.sq[0].u.seq < m.robBuf[m.robHead].seq)
}

// supervised wraps a run-ending error into a StallError with a CoreDump;
// its Error text is err's.
func (m *Machine) supervised(reason string, err error) error {
	return &StallError{Reason: reason, Cause: err, Dump: m.coreDump(reason)}
}

// faultTick applies cycle-granular cache-state faults (tag and
// replacement-metadata corruption). Value and scheduling faults hook the
// stages directly.
func (m *Machine) faultTick() {
	f := m.cfg.Faults
	site, ok := f.CacheFaultDue(m.cycle)
	if !ok {
		return
	}
	corrupted := false
	switch site {
	case faults.SiteCacheLine:
		corrupted = m.hier.CorruptL1Line(f.CorruptionSeed())
	case faults.SiteReplacement:
		corrupted = m.hier.CorruptL1Replacement(f.CorruptionSeed())
	}
	// An empty cache has nothing to corrupt; the fault retries until a
	// valid line exists.
	if corrupted {
		f.CommitCacheFault(m.cycle)
	}
}

func (m *Machine) fail(format string, args ...any) {
	if m.err == nil {
		m.err = fmt.Errorf("pipeline: cycle %d: %s", m.cycle, fmt.Sprintf(format, args...))
	}
}

// readWithForward reads width bytes at addr, patching in store data from
// in-flight stores older than seq (store-to-load forwarding). It reports
// whether the whole access was covered by forwarding, whether any byte
// was, whether any byte carries RDCYCLE taint, whether any overlapping
// store holds data from an unverified speculative forward (specData),
// and (when Config.Taint is set) the union of the bytes' secret labels —
// shadow memory for bytes read from memory, the store µop's labels for
// forwarded bytes.
func (m *Machine) readWithForward(addr uint64, width int, seq uint64) (val uint64, full, any, tainted, spec bool, labels taint.LabelSet) {
	var b [8]byte
	var covered [8]bool
	var byteLabels [8]taint.LabelSet
	st := m.cfg.Taint
	// One page-granular memory read instead of a per-byte lookup loop;
	// the taint side channels stay byte-granular but are skipped entirely
	// when no taint is in play.
	mv := m.mem.Read(addr, width)
	for i := 0; i < width; i++ {
		b[i] = byte(mv >> (8 * i))
	}
	if len(m.taintedMem) > 0 {
		for i := 0; i < width; i++ {
			if m.taintedMem[addr+uint64(i)] {
				tainted = true
				break
			}
		}
	}
	if st != nil {
		for i := 0; i < width; i++ {
			byteLabels[i] = st.Mem.Get(addr + uint64(i))
		}
	}
	for _, e := range m.sq {
		if e.u.seq >= seq {
			break
		}
		if !e.addrReady {
			m.fail("load forwarded past unresolved store #%d", e.u.seq)
			break
		}
		sa, sw := e.u.addr, e.u.memWidth
		if disjoint(addr, width, sa, sw) {
			continue
		}
		for i := 0; i < width; i++ {
			a := addr + uint64(i)
			if a >= sa && a < sa+uint64(sw) {
				b[i] = byte(e.u.storeVal >> (8 * (a - sa)))
				covered[i] = true
				if e.u.tainted {
					tainted = true
				}
				if e.u.specData {
					spec = true
				}
				// A forwarded byte takes the store's labels, exactly as
				// shadow memory will once that store performs.
				byteLabels[i] = e.u.labels
			}
		}
	}
	if st != nil {
		for i := 0; i < width; i++ {
			labels |= byteLabels[i]
		}
	}
	full, any = true, false
	for i := 0; i < width; i++ {
		if covered[i] {
			any = true
		} else {
			full = false
		}
	}
	for i := width - 1; i >= 0; i-- {
		val = val<<8 | uint64(b[i])
	}
	// Fault site: mis-forwarded store data. Only fires on an access that
	// actually used forwarding; the independent recomputation below (or,
	// without invariant checking, retire verification) is the detector.
	if any {
		if fv, flipped := m.cfg.Faults.FlipValue(faults.SiteForward, m.cycle, val); flipped {
			val = fv
		}
	}
	if m.cfg.CheckInvariants {
		m.checkForwardConsistency(addr, width, seq, val, full && any, any)
	}
	return val, full && any, any, tainted, spec, labels
}

// disjoint reports that no byte of the access [a, a+aw) can fall in the
// store [s, s+sw) under the per-byte forwarding rule. It decides only
// the case where neither range wraps past 2^64; an access that does is
// left to the per-byte rule.
func disjoint(a uint64, aw int, s uint64, sw int) bool {
	aEnd, sEnd := a+uint64(aw), s+uint64(sw)
	return aEnd > a && sEnd > s && (aEnd <= s || sEnd <= a)
}

// RegTainted reports whether r's committed value derives from RDCYCLE.
// Tainted registers are timing-dependent by design and must be excluded
// from architectural comparison against the functional emulator.
func (m *Machine) RegTainted(r isa.Reg) bool { return m.committedTaint[r] }

// MemTainted reports whether the byte at addr was written by a
// RDCYCLE-derived store, making its value timing-dependent.
func (m *Machine) MemTainted(addr uint64) bool { return m.taintedMem[addr] }
