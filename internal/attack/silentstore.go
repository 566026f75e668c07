package attack

import (
	"context"
	"fmt"
	"math/rand"

	"pandora/internal/bsaes"
	"pandora/internal/cache"
	"pandora/internal/histo"
	"pandora/internal/isa"
	"pandora/internal/mem"
	"pandora/internal/parallel"
	"pandora/internal/pipeline"
)

// The silent-store attack of Section V-A: a cloud-model encryption server
// runs constant-time bitslice AES-128; the byte-substitution stage spills
// eight 16-bit intermediate values (the final-round slices) to the stack,
// and those slots are not cleared between calls. The attacker and the
// victim both trigger encryptions; each attacker encryption overwrites the
// victim's stale slice values, and a single dynamic store is silent
// exactly when the attacker's value equals the victim's. The amplification
// gadget (Figure 5) turns that one store's silence into a >100-cycle
// end-to-end timing difference (Figure 6); sweeping values recovers all
// eight slices, which together with one observed ciphertext yield the last
// round key and — because the key schedule is invertible — the master key
// (Section V-A3).

// Memory layout of the BSAES scenario.
const (
	bsStackBase = uint64(0x8000) // victim stack; slice slot k at +k*64
	bsSlotStep  = uint64(64)     // one cache line per spilled slot
	bsDelayAddr = uint64(0x4040) // delay-gadget load (kept cold)
	// bsFlushStep is the L2 same-set stride (256 sets * 64B lines).
	bsFlushStep = uint64(0x4000)
)

// BSAESConfig parameterizes the attack.
type BSAESConfig struct {
	// SQSize is the victim core's store-queue depth (the paper evaluates
	// a 5-entry SQ).
	SQSize int
	// ClearSpills enables the Section VI-A2 software defense: the server
	// zeroes the spilled intermediate slots after every call, so a later
	// caller's stores can never silently match a previous caller's
	// secrets ("it may be sufficient to clear data memory in a targeted
	// fashion").
	ClearSpills bool
	// Trace receives progress lines when non-nil.
	Trace func(format string, args ...any)
}

// DefaultBSAESConfig returns the paper's evaluation configuration:
// 5-entry SQ and a direct-mapped first-level cache (Figure 5's setting;
// the paper's own histogram uses a 4-way cache with a set-contention
// flush, which our flush gadget generalizes).
func DefaultBSAESConfig() BSAESConfig {
	return BSAESConfig{SQSize: 5}
}

// BSAESAttack is one instantiated cloud scenario.
type BSAESAttack struct {
	cfg BSAESConfig

	Mem     *mem.Memory
	Hier    *cache.Hierarchy
	Machine *pipeline.Machine

	victimKey   [16]byte // server-side secret (used only to run the victim)
	victimPlain [16]byte // public data the victim repeatedly encrypts
	victimTrace bsaes.Trace

	attackerKey [16]byte // the attacker's own session key (known to it)

	// snap is the canonical post-construction memory image; Reset
	// restores it so pooled scenarios start every sweep shard from
	// identical state regardless of which shard ran on them before.
	snap *mem.Memory

	threshold int64 // cycles separating silent from non-silent attempts
}

// NewBSAESAttack builds the scenario.
func NewBSAESAttack(cfg BSAESConfig, victimKey, victimPlain, attackerKey [16]byte) (*BSAESAttack, error) {
	tr, err := bsaes.EncryptTrace(victimPlain[:], victimKey[:])
	if err != nil {
		return nil, err
	}
	return newBSAESScenario(cfg, victimKey, victimPlain, attackerKey, tr)
}

// newBSAESScenario wires memory, caches and the machine around an
// already-computed victim trace (Clone reuses the parent's trace instead
// of re-running the bitslice encryption).
func newBSAESScenario(cfg BSAESConfig, victimKey, victimPlain, attackerKey [16]byte, tr bsaes.Trace) (*BSAESAttack, error) {
	if cfg.SQSize <= 0 {
		cfg.SQSize = 5
	}
	m := mem.New()
	hcfg := cache.DefaultHierConfig()
	hcfg.L1.Ways = 1 // direct-mapped, as in Figure 5
	hier, err := cache.NewHierarchy(hcfg)
	if err != nil {
		return nil, err
	}
	pcfg := pipeline.DefaultConfig()
	pcfg.SilentStores = pipeline.SilentStoreConfig{Scheme: pipeline.SSReadPortStealing}
	pcfg.SQSize = cfg.SQSize
	machine, err := pipeline.New(pcfg, m, hier)
	if err != nil {
		return nil, err
	}
	// The delay gadget's load yields the first flush-line address.
	m.Write(bsDelayAddr, 8, bsStackBase+bsFlushStep)

	a := &BSAESAttack{
		cfg:         cfg,
		Mem:         m,
		Hier:        hier,
		Machine:     machine,
		victimKey:   victimKey,
		victimPlain: victimPlain,
		victimTrace: tr,
		attackerKey: attackerKey,
		snap:        m.Snapshot(),
	}
	return a, nil
}

// Clone builds an independent scenario with the same configuration,
// keys and victim trace (and any calibrated threshold), for sharding a
// sweep across workers. The clone shares no mutable state with a.
func (a *BSAESAttack) Clone() (*BSAESAttack, error) {
	c, err := newBSAESScenario(a.cfg, a.victimKey, a.victimPlain, a.attackerKey, a.victimTrace)
	if err != nil {
		return nil, err
	}
	c.threshold = a.threshold
	return c, nil
}

// Reset rewinds the scenario's machine-visible state — data memory and
// both cache levels — to the canonical post-construction image. The
// calibrated threshold survives (it is the attacker's knowledge, not
// machine state). After Reset every run sequence is a pure function of
// the programs executed since, which is what makes pooled scenario
// reuse deterministic.
func (a *BSAESAttack) Reset() {
	a.Mem.Restore(a.snap)
	a.Hier.FlushAll()
}

// VictimCiphertext is the encryption result the server returns for the
// victim's public data — observable by the attacker on the wire.
func (a *BSAESAttack) VictimCiphertext() [16]byte { return a.victimTrace.Ciphertext }

// SpillSlotAddr returns the stack address of spilled slice k — the
// byte-substitution stage's k-th 16-bit spill slot.
func SpillSlotAddr(k int) uint64 { return bsStackBase + uint64(k)*bsSlotStep }

// EncryptKernel builds the simulated server kernel for one encryption
// call: the eight final-round slice stores, with the Figure 5
// amplification gadget (delay load + eight-line flush) spliced in before
// the target store. target < 0 builds the un-instrumented kernel.
// clearSpills appends the defensive zeroing epilogue.
func EncryptKernel(slices bsaes.State, target int, clearSpills bool) isa.Program {
	var p isa.Program
	emit := func(in isa.Inst) { p = append(p, in) }

	const (
		rStack = isa.Reg(1)
		rDelay = isa.Reg(2)
		rVal   = isa.Reg(3)
		rPtr   = isa.Reg(4) // delay result = flush base
	)
	emit(isa.Inst{Op: isa.ADDI, Rd: rStack, Rs1: isa.X0, Imm: int64(bsStackBase)})
	emit(isa.Inst{Op: isa.ADDI, Rd: rDelay, Rs1: isa.X0, Imm: int64(bsDelayAddr)})

	for k := 0; k < 8; k++ {
		if k == target {
			// Delay gadget: a load miss whose result the flush loads
			// depend on, guaranteeing the SS-Load completes first.
			emit(isa.Inst{Op: isa.LD, Rd: rPtr, Rs1: rDelay, Imm: 0})
			// Flush gadget: eight loads covering the target line's L2
			// set (and, being multiples of the L1 stride, its L1 set).
			// rPtr holds stack+flushStep, so line n is
			// stack + target*slotStep + n*flushStep for n = 1..8 — never
			// the target line itself.
			for n := 1; n <= 8; n++ {
				emit(isa.Inst{Op: isa.LD, Rd: isa.Reg(7 + n), Rs1: rPtr,
					Imm: int64(uint64(n)*bsFlushStep) + int64(uint64(target)*bsSlotStep) - int64(bsFlushStep)})
			}
		}
		emit(isa.Inst{Op: isa.ADDI, Rd: rVal, Rs1: isa.X0, Imm: int64(slices[k])})
		emit(isa.Inst{Op: isa.SH, Rs1: rStack, Rs2: rVal, Imm: int64(uint64(k) * bsSlotStep)})
	}
	if clearSpills {
		for k := 0; k < 8; k++ {
			emit(isa.Inst{Op: isa.SH, Rs1: rStack, Rs2: isa.X0, Imm: int64(uint64(k) * bsSlotStep)})
		}
	}
	emit(isa.Inst{Op: isa.HALT})
	return p
}

// resetGadgetLines evicts the delay and flush lines so the gadget's
// preconditions hold for the next call.
func (a *BSAESAttack) resetGadgetLines(target int) {
	a.Hier.EvictAll(bsDelayAddr)
	base := bsStackBase + uint64(target)*bsSlotStep
	for n := 1; n <= 8; n++ {
		a.Hier.EvictAll(base + uint64(n)*bsFlushStep)
	}
}

// runVictim performs one victim encryption on the server: the victim's
// slice values are spilled to the stack (and its slot lines end up warm in
// the cache). Un-instrumented: the victim's own call timing is irrelevant.
func (a *BSAESAttack) runVictim() error {
	_, err := a.Machine.Run(EncryptKernel(a.victimTrace.FinalSlices, -1, a.cfg.ClearSpills))
	return err
}

// runAttempt performs one attacker encryption with the gadget on store
// `target`, returning the call's cycle count.
func (a *BSAESAttack) runAttempt(slices bsaes.State, target int) (int64, error) {
	a.resetGadgetLines(target)
	res, err := a.Machine.Run(EncryptKernel(slices, target, a.cfg.ClearSpills))
	if err != nil {
		return 0, err
	}
	return res.Cycles, nil
}

// SetThreshold overrides the silent/non-silent classification threshold;
// experiment harnesses use it to carry a calibration across
// configurations (e.g. when evaluating defenses that break in-place
// calibration).
func (a *BSAESAttack) SetThreshold(cycles int64) { a.threshold = cycles }

// Calibrate measures known-silent and known-non-silent attacker attempts
// (back-to-back encryptions of the attacker's own data) and fixes the
// classification threshold between the two modes.
func (a *BSAESAttack) Calibrate() (silent, nonSilent int64, err error) {
	var sl bsaes.State
	for i := range sl {
		sl[i] = uint16(0x1111 * (i + 1))
	}
	if _, err = a.runAttempt(sl, 0); err != nil { // settle stale values
		return
	}
	if silent, err = a.runAttempt(sl, 0); err != nil { // identical → silent
		return
	}
	diff := sl
	diff[0] ^= 0xffff
	if nonSilent, err = a.runAttempt(diff, 0); err != nil { // mismatch → refill
		return
	}
	if nonSilent-silent < 16 {
		err = fmt.Errorf("attack: calibration gap too small (%d vs %d)", silent, nonSilent)
		return
	}
	a.threshold = (silent + nonSilent) / 2
	return
}

// attemptIsSilent runs victim-then-attacker and classifies the target
// store.
func (a *BSAESAttack) attemptIsSilent(slices bsaes.State, target int) (bool, int64, error) {
	if err := a.runVictim(); err != nil {
		return false, 0, err
	}
	cycles, err := a.runAttempt(slices, target)
	if err != nil {
		return false, 0, err
	}
	return cycles < a.threshold, cycles, nil
}

// attackerSlicesWith returns a slice vector whose target entry is v and
// whose other entries avoid accidental matches with anything previously
// stored (they still produce small silent-store noise either way, which
// calibration absorbs).
func attackerSlicesWith(target int, v uint16) bsaes.State {
	var s bsaes.State
	for i := range s {
		s[i] = uint16(0xA5A5 ^ i*0x0101)
	}
	s[target] = v
	return s
}

// RecoverSliceDirect recovers the victim's spilled slice `target` by
// sweeping candidate values directly (the attacker with a precomputed
// plaintext→slice dictionary; each probe is one online experiment).
func (a *BSAESAttack) RecoverSliceDirect(target int, candidates []uint16) (uint16, bool, error) {
	if a.threshold == 0 {
		if _, _, err := a.Calibrate(); err != nil {
			return 0, false, err
		}
	}
	for _, v := range candidates {
		silent, cycles, err := a.attemptIsSilent(attackerSlicesWith(target, v), target)
		if err != nil {
			return 0, false, err
		}
		if silent {
			if a.cfg.Trace != nil {
				a.cfg.Trace("bsaes: slot %d = %#04x (%d cycles)", target, v, cycles)
			}
			return v, true, nil
		}
	}
	return 0, false, nil
}

// RecoverSliceViaPlaintexts is the fully faithful online loop: the
// attacker varies its plaintext, computes its own slice value under its
// own key, and watches for the silent-store timing signal. It returns the
// recovered value and the number of online attempts used.
func (a *BSAESAttack) RecoverSliceViaPlaintexts(target int, maxAttempts int) (uint16, int, bool, error) {
	if a.threshold == 0 {
		if _, _, err := a.Calibrate(); err != nil {
			return 0, 0, false, err
		}
	}
	var pt [16]byte
	for i := 0; i < maxAttempts; i++ {
		// Counter-mode plaintext sweep.
		for b := 0; b < 8; b++ {
			pt[b] = byte(i >> (8 * b))
		}
		tr, err := bsaes.EncryptTrace(pt[:], a.attackerKey[:])
		if err != nil {
			return 0, 0, false, err
		}
		silent, _, err := a.attemptIsSilent(tr.FinalSlices, target)
		if err != nil {
			return 0, 0, false, err
		}
		if silent {
			return tr.FinalSlices[target], i + 1, true, nil
		}
	}
	return 0, maxAttempts, false, nil
}

// RecoverKey runs the complete Section V-A3 chain: recover all eight
// spilled slices, combine with the observed victim ciphertext into the
// round-10 key, and invert the key schedule. candidatesFor supplies the
// value sweep per slot (the full attack uses all 65536; experiments may
// narrow it).
func (a *BSAESAttack) RecoverKey(candidatesFor func(slot int) []uint16) ([16]byte, error) {
	var recovered bsaes.State
	for k := 0; k < 8; k++ {
		v, ok, err := a.RecoverSliceDirect(k, candidatesFor(k))
		if err != nil {
			return [16]byte{}, err
		}
		if !ok {
			return [16]byte{}, fmt.Errorf("attack: slot %d not recovered", k)
		}
		recovered[k] = v
	}
	k10 := bsaes.RecoverRound10Key(recovered, a.VictimCiphertext())
	return bsaes.InvertKeySchedule(k10), nil
}

// RecoverKeyParallel is RecoverKey sharded by slot over a worker pool:
// each of the eight spilled slices is recovered on its own cloned
// scenario reset to canonical state, so the recovered key is
// bit-identical at every worker count (workers <= 0 selects
// GOMAXPROCS). candidatesFor must be safe for concurrent calls.
func (a *BSAESAttack) RecoverKeyParallel(workers int, candidatesFor func(slot int) []uint16) ([16]byte, error) {
	// Fix the classification threshold once, from canonical state, so
	// every shard classifies identically. (A shard-local calibration
	// would also be deterministic, but would redo three runs per slot.)
	if a.threshold == 0 {
		cal, err := a.Clone()
		if err != nil {
			return [16]byte{}, err
		}
		if _, _, err := cal.Calibrate(); err != nil {
			return [16]byte{}, err
		}
		a.threshold = cal.threshold
	}

	pool := parallel.NewPool(parallel.Workers(workers), a.Clone)
	type slotResult struct {
		v   uint16
		ok  bool
		err error
	}
	res, err := parallel.Sweep(context.Background(), workers, len(a.victimTrace.FinalSlices),
		func(_ context.Context, k int) (slotResult, error) {
			c, err := pool.Get()
			if err != nil {
				return slotResult{err: err}, nil
			}
			defer pool.Put(c)
			c.Reset()
			c.threshold = a.threshold
			v, ok, err := c.RecoverSliceDirect(k, candidatesFor(k))
			return slotResult{v: v, ok: ok, err: err}, nil
		})
	if err != nil {
		return [16]byte{}, err
	}
	var recovered bsaes.State
	for k, r := range res {
		if r.err != nil {
			return [16]byte{}, r.err
		}
		if !r.ok {
			return [16]byte{}, fmt.Errorf("attack: slot %d not recovered", k)
		}
		recovered[k] = r.v
	}
	k10 := bsaes.RecoverRound10Key(recovered, a.VictimCiphertext())
	return bsaes.InvertKeySchedule(k10), nil
}

// VictimSlices exposes the ground-truth spilled values for experiment
// scoring only.
func (a *BSAESAttack) VictimSlices() bsaes.State { return a.victimTrace.FinalSlices }

// Figure6 collects the paper's Figure 6 data: end-to-end runtime
// histograms for attacker encryptions whose instrumented store (slot 0)
// carries the correct vs an incorrect guess of the victim's stale value.
// The seven uninstrumented slices vary randomly per sample, as they would
// across attacker plaintexts — that variation is the distribution's
// spread; the silent/non-silent gap dwarfs it.
func (a *BSAESAttack) Figure6(samples int, rng *rand.Rand) (correct, incorrect *histo.Histogram, err error) {
	if a.threshold == 0 {
		if _, _, err = a.Calibrate(); err != nil {
			return nil, nil, err
		}
	}
	const target = 0
	truth := a.victimTrace.FinalSlices[target]
	correct, incorrect = histo.New(25), histo.New(25)
	for i := 0; i < samples; i++ {
		var s bsaes.State
		for j := range s {
			s[j] = uint16(rng.Intn(1 << 16))
		}
		s[target] = truth
		if err = a.runVictim(); err != nil {
			return nil, nil, err
		}
		cyc, rerr := a.runAttempt(s, target)
		if rerr != nil {
			return nil, nil, rerr
		}
		correct.Add(cyc)

		s[target] = truth ^ uint16(1+rng.Intn(1<<16-1))
		if err = a.runVictim(); err != nil {
			return nil, nil, err
		}
		cyc, rerr = a.runAttempt(s, target)
		if rerr != nil {
			return nil, nil, rerr
		}
		incorrect.Add(cyc)
	}
	return correct, incorrect, nil
}

// fig6Sample is one Figure6Parallel observation pair.
type fig6Sample struct {
	correct, incorrect int64
}

// Figure6Parallel collects the Figure 6 distributions with samples
// sharded over a worker pool. Each sample runs on a pooled scenario
// reset to canonical state with an RNG seeded from (seed, sample index),
// so both histograms are bit-identical at every worker count — the
// per-sample randomness no longer depends on how earlier samples drew
// from a shared stream.
func (a *BSAESAttack) Figure6Parallel(samples, workers int, seed int64) (correct, incorrect *histo.Histogram, err error) {
	const target = 0
	truth := a.victimTrace.FinalSlices[target]
	pool := parallel.NewPool(parallel.Workers(workers), a.Clone)
	res, err := parallel.Sweep(context.Background(), workers, samples,
		func(_ context.Context, i int) (fig6Sample, error) {
			c, err := pool.Get()
			if err != nil {
				return fig6Sample{}, err
			}
			defer pool.Put(c)
			c.Reset()
			rng := rand.New(rand.NewSource(parallel.Seed(seed, i)))
			var s bsaes.State
			for j := range s {
				s[j] = uint16(rng.Intn(1 << 16))
			}
			s[target] = truth
			if err := c.runVictim(); err != nil {
				return fig6Sample{}, err
			}
			cycC, err := c.runAttempt(s, target)
			if err != nil {
				return fig6Sample{}, err
			}
			s[target] = truth ^ uint16(1+rng.Intn(1<<16-1))
			if err := c.runVictim(); err != nil {
				return fig6Sample{}, err
			}
			cycI, err := c.runAttempt(s, target)
			if err != nil {
				return fig6Sample{}, err
			}
			return fig6Sample{correct: cycC, incorrect: cycI}, nil
		})
	if err != nil {
		return nil, nil, err
	}
	correct, incorrect = histo.New(25), histo.New(25)
	for _, r := range res {
		correct.Add(r.correct)
		incorrect.Add(r.incorrect)
	}
	return correct, incorrect, nil
}
