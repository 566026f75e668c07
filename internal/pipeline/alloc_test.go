package pipeline

import (
	"strings"
	"testing"

	"pandora/internal/asm"
	"pandora/internal/cache"
	"pandora/internal/faults"
	"pandora/internal/isa"
	"pandora/internal/mem"
	"pandora/internal/obs"
)

// allocKernel exercises the hot structures the pools and scratch buffers
// serve — ALU chains, mul, loads, stores (SQ entries, forwarding), a
// fence, and a taken backward branch — long enough that steady-state
// behavior dominates.
const allocKernel = `
	addi x1, x0, 300
	addi x2, x0, 0
	lui  x29, 1
loop:
	ld   x3, 0(x29)
	add  x2, x2, x3
	mul  x4, x2, x1
	sd   x2, 8(x29)
	fence
	sd   x4, 16(x29)
	addi x1, x1, -1
	bne  x1, x0, loop
	halt
`

// countProbe is the minimal enabled probe: emission must not allocate, so
// it only counts, in total and per kind.
type countProbe struct {
	n     uint64
	kinds [256]uint64
}

func (p *countProbe) Emit(e obs.Event) {
	p.n++
	p.kinds[e.Kind]++
}

func steadyStateAllocs(t *testing.T, cfg Config) float64 {
	t.Helper()
	m, err := New(cfg, mem.New(), cache.MustNewHierarchy(cache.DefaultHierConfig()))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	prog := asm.MustAssemble(allocKernel)
	// Warm every pool, scratch buffer, memory page and cache structure:
	// the claim is zero STEADY-STATE allocations, not a zero-alloc first
	// run.
	var runErr error
	for i := 0; i < 3; i++ {
		if _, runErr = m.Run(prog); runErr != nil {
			t.Fatalf("warmup Run: %v", runErr)
		}
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := m.Run(prog); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatalf("Run: %v", runErr)
	}
	return avg
}

// TestSteadyStateAllocsNilProbe pins the core claim of the pooled cycle
// loop: with no probe attached, a whole steady-state Run — thousands of
// cycles of fetch, rename, issue, forwarding, store dequeue and retire —
// performs zero heap allocations.
func TestSteadyStateAllocsNilProbe(t *testing.T) {
	cfg := DefaultConfig()
	if avg := steadyStateAllocs(t, cfg); avg != 0 {
		t.Errorf("nil-probe steady-state Run allocates %.1f times, want 0", avg)
	}
}

// TestRetireAllocFree pins that a steady-state retire allocates nothing
// now that every Run keeps the CoreDump's retire history: each measured
// iteration pushes one completed µop at the head of a warmed machine's
// ROB and retires it, history record included.
func TestRetireAllocFree(t *testing.T) {
	m := newTestMachine(t, DefaultConfig())
	if _, err := m.Run(asm.MustAssemble(allocKernel)); err != nil {
		t.Fatalf("warmup Run: %v", err)
	}
	retired := m.stats.Retired
	avg := testing.AllocsPerRun(100, func() {
		u := m.allocUop()
		u.seq, u.pc, u.class, u.stage = m.lastRetiredSeq+1, 4, isa.ClassALU, stDone
		u.inst = isa.Inst{Op: isa.ADD, Rd: 2, Rs1: 2, Rs2: 3}
		u.t = &m.tmpl[4]
		u.result, u.oracleResult = m.committed[2], m.committed[2]
		m.robPush(u)
		m.retire()
	})
	if m.err != nil {
		t.Fatalf("retire: %v", m.err)
	}
	if avg != 0 {
		t.Errorf("retire allocates %.1f times per µop, want 0", avg)
	}
	if got := m.stats.Retired - retired; got < 100 || m.nRetired < 100 {
		t.Fatalf("retired %d µops, history recorded %d; want every measured retire", got, m.nRetired)
	}
}

// TestSteadyStateAllocsEnabledProbe pins the same property with a probe
// attached: every emission site builds the obs.Event by value with static
// Detail strings, so observation itself is allocation-free.
func TestSteadyStateAllocsEnabledProbe(t *testing.T) {
	cfg := DefaultConfig()
	p := &countProbe{}
	cfg.Probe = p
	if avg := steadyStateAllocs(t, cfg); avg != 0 {
		t.Errorf("enabled-probe steady-state Run allocates %.1f times, want 0", avg)
	}
	if p.n == 0 {
		t.Fatal("probe saw no events — the enabled-probe path was not exercised")
	}
}

// TestSteadyStateAllocsSilentStores covers the store-queue emit sites
// (address resolve, SS-Load issue/return/no-port/late, queue head, fill
// request): a silent-store machine with a probe attached still
// steady-states at zero allocations, and the four Figure 4 cases between
// them publish every store-queue kind.
func TestSteadyStateAllocsSilentStores(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SilentStores = SilentStoreConfig{Scheme: SSReadPortStealing}
	steady := &countProbe{}
	cfg.Probe = steady
	if avg := steadyStateAllocs(t, cfg); avg != 0 {
		t.Errorf("silent-store enabled-probe steady-state Run allocates %.1f times, want 0", avg)
	}
	if steady.kinds[obs.KindAddrResolved] == 0 || steady.kinds[obs.KindSSLoadReturn] == 0 || steady.kinds[obs.KindSQHead] == 0 {
		t.Fatal("steady-state kernel never reached the store-queue emit sites")
	}

	caseBSrc := strings.Replace(caseASrc, "addi x2, x0, 7", "addi x2, x0, 8", 1)
	caseCSrc := `
		addi x1, x0, 0x800
		addi x2, x0, 7
		sd   x2, 0(x1)
		ld   x10, 64(x1)
		ld   x11, 128(x1)
		ld   x12, 192(x1)
		ld   x13, 256(x1)
		ld   x14, 320(x1)
		ld   x15, 384(x1)
		halt
	`
	caseDSrc := `
		addi x1, x0, 0x800
		addi x2, x0, 7
		sd   x2, 0(x1)
		halt
	`
	cases := []struct {
		name      string
		src       string
		loadPorts int
		warm      bool
	}{
		{"A silent", caseASrc, 0, true},
		{"B mismatch", caseBSrc, 0, true},
		// Case C on a cold line: the SS-Load never touches the cache, so
		// the store's own perform misses L1 and requests the fill.
		{"C no port", caseCSrc, 1, false},
		{"D late", caseDSrc, 0, false},
	}
	p := &countProbe{}
	for _, c := range cases {
		cfg := DefaultConfig()
		cfg.SilentStores = SilentStoreConfig{Scheme: SSReadPortStealing}
		if c.loadPorts > 0 {
			cfg.LoadPorts = c.loadPorts
		}
		cfg.Probe = p
		mm := mem.New()
		mm.Write(0x800, 8, 7)
		h := cache.MustNewHierarchy(cache.DefaultHierConfig())
		if c.warm {
			h.Access(0x800, 7, false)
		}
		m, err := New(cfg, mm, h)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(asm.MustAssemble(c.src)); err != nil {
			t.Fatalf("case %s: %v", c.name, err)
		}
	}
	for _, k := range []obs.Kind{obs.KindAddrResolved, obs.KindSSLoadNoPort, obs.KindSSLoadReturn,
		obs.KindSSLoadLate, obs.KindSQHead, obs.KindFillRequest} {
		if p.kinds[k] == 0 {
			t.Errorf("no %v event across the Figure 4 cases", k)
		}
	}
}

// TestSteadyStateAllocsBitsetVsLinear runs the alloc check under the
// reference linear scheduler too: the scratch-buffer reuse must hold on
// both candidate-gathering paths.
func TestSteadyStateAllocsLinearScheduler(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LinearScheduler = true
	if avg := steadyStateAllocs(t, cfg); avg != 0 {
		t.Errorf("linear-scheduler steady-state Run allocates %.1f times, want 0", avg)
	}
}

// TestSteadyStateAllocsCheckInvariants pins the per-cycle structural
// checks at zero allocations: the ROB slots and cache sets changed since
// the last pass, the readiness re-tests, and the store queue, plus the
// closing full cache sweep.
func TestSteadyStateAllocsCheckInvariants(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CheckInvariants = true
	if avg := steadyStateAllocs(t, cfg); avg != 0 {
		t.Errorf("checked steady-state Run allocates %.1f times, want 0", avg)
	}
}

// TestNewAllocs pins the cost of building a machine, which every fault
// trial and every fresh scan pays: the counter registry is built only by
// Metrics, and every per-slot bitmap shares one slab.
func TestNewAllocs(t *testing.T) {
	pm, hier := mem.New(), cache.MustNewHierarchy(cache.DefaultHierConfig())
	for _, checked := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.CheckInvariants = checked
		if allocs := testing.AllocsPerRun(20, func() {
			if _, err := New(cfg, pm, hier); err != nil {
				t.Fatal(err)
			}
		}); allocs > 6 {
			t.Errorf("New (CheckInvariants=%v) allocates %v times, want at most 6", checked, allocs)
		}
	}
}

// TestHierarchyChecksAllocFree pins both cache-hierarchy checks at zero
// allocations on a warmed default hierarchy: the full sweep, and the
// incremental check after an access has marked sets in both levels.
func TestHierarchyChecksAllocFree(t *testing.T) {
	h := cache.MustNewHierarchy(cache.DefaultHierConfig())
	for a := uint64(0); a < 64<<10; a += 64 {
		h.Access(a, 0, false)
	}
	var err error
	if avg := testing.AllocsPerRun(100, func() { err = h.CheckInvariants() }); avg != 0 {
		t.Errorf("CheckInvariants allocates %.1f times, want 0", avg)
	}
	if err != nil {
		t.Fatalf("CheckInvariants: %v", err)
	}
	a := uint64(0)
	if avg := testing.AllocsPerRun(100, func() {
		a += 4096 + 64
		h.Access(a, 0, false)
		err = h.CheckChanged()
	}); avg != 0 {
		t.Errorf("CheckChanged allocates %.1f times, want 0", avg)
	}
	if err != nil {
		t.Fatalf("CheckChanged: %v", err)
	}
}

// TestPoolReclaimAcrossRuns checks that repeated Runs do not leak pooled
// µops: the free lists reach a fixed point bounded by the in-flight
// window, not by the dynamic instruction count.
func TestPoolReclaimAcrossRuns(t *testing.T) {
	m := newTestMachine(t, DefaultConfig())
	prog := asm.MustAssemble(allocKernel)
	for i := 0; i < 5; i++ {
		if _, err := m.Run(prog); err != nil {
			t.Fatalf("Run %d: %v", i, err)
		}
	}
	after5 := len(m.uopPool)
	for i := 0; i < 5; i++ {
		if _, err := m.Run(prog); err != nil {
			t.Fatalf("Run %d: %v", i, err)
		}
	}
	if len(m.uopPool) != after5 {
		t.Errorf("µop pool grew across identical runs: %d -> %d", after5, len(m.uopPool))
	}
	bound := 4 * m.cfg.ROBSize
	if after5 > bound {
		t.Errorf("µop pool holds %d entries, want <= %d (in-flight window, not program length)", after5, bound)
	}
}

// TestUopDoubleFreeDetected proves the pool's double-free guard fails the
// machine loudly instead of corrupting an unrelated µop.
func TestUopDoubleFreeDetected(t *testing.T) {
	m := newTestMachine(t, DefaultConfig())
	u := m.allocUop()
	m.freeUop(u)
	m.freeUop(u)
	if m.err == nil {
		t.Fatal("double free not detected")
	}
}

// specAllocConfig enables every speculation feature plus the slow store
// AGU, so aborted runs can strand wrong-path µops and unverified
// speculative forwards.
func specAllocConfig() Config {
	cfg := DefaultConfig()
	cfg.StoreAddrLat = 4
	cfg.Speculation = SpeculationConfig{WrongPath: true, Bimodal: true, StLF: true}
	return cfg
}

// specAllocKernel mixes a constantly mispredicting forward branch (static
// wrong-path fetch over a load and a store) with a forwardable store→load
// pair, so aborts land in every speculative state.
const specAllocKernel = `
	addi x1, x0, 200
	lui  x29, 1
	addi x12, x0, 9
loop:
	sd   x12, 0(x29)
	ld   x3, 0(x29)
	beq  x3, x12, t1
	add  x4, x4, x3
	sd   x4, 8(x29)
t1:
	add  x2, x2, x3
	fence
	addi x1, x1, -1
	bne  x1, x0, loop
	halt
`

// TestSteadyStateAllocsSpeculation extends the zero-alloc claim to the
// speculative machine: wrong-path fetch, squash recovery and the
// forwarding predictor must all run out of the same pools.
func TestSteadyStateAllocsSpeculation(t *testing.T) {
	if avg := steadyStateAllocs(t, specAllocConfig()); avg != 0 {
		t.Errorf("speculative steady-state Run allocates %.1f times, want 0", avg)
	}
}

// TestReclaimAfterAbort checks reclaimInFlight: a run aborted mid-flight
// (MaxCycles) leaves µops in the ROB, SQ and fence queue; the next Run
// must recycle them all and still be correct.
func TestReclaimAfterAbort(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 50 // aborts mid-loop
	m := newTestMachine(t, cfg)
	prog := asm.MustAssemble(allocKernel)
	if _, err := m.Run(prog); err == nil {
		t.Fatal("expected MaxCycles error")
	}
	m.cfg.MaxCycles = DefaultConfig().MaxCycles
	res, err := m.Run(prog)
	if err != nil {
		t.Fatalf("Run after abort: %v", err)
	}
	if res.Retired == 0 {
		t.Fatal("no retirement after abort recovery")
	}
	if got := m.Reg(isa.Reg(1)); got != 0 {
		t.Errorf("x1 = %d after loop, want 0", got)
	}
}

// checkPoolsComplete asserts the leak invariant: after a clean run every
// pooled object ever allocated is back in its free list. A µop stranded
// by an abort (e.g. a retired producer reachable only through an
// in-flight consumer's prod reference) breaks the equality.
func checkPoolsComplete(t *testing.T, m *Machine, ctx string) {
	t.Helper()
	if len(m.uopPool) != m.uopAllocated {
		t.Errorf("%s: µop pool holds %d of %d allocated — %d leaked",
			ctx, len(m.uopPool), m.uopAllocated, m.uopAllocated-len(m.uopPool))
	}
	if len(m.sqPool) != m.sqAllocated {
		t.Errorf("%s: SQ pool holds %d of %d allocated — %d leaked",
			ctx, len(m.sqPool), m.sqAllocated, m.sqAllocated-len(m.sqPool))
	}
}

// TestAbortReclaimNoNetLeak drives every Run error path — MaxCycles
// aborts at varying cut points, watchdog stalls, and fault-induced
// pipeline failures — and pins zero net pool growth: after the recovery
// run, every µop and SQ entry ever allocated is back in its pool. The
// abort points sweep across cycles so the in-flight snapshot lands on
// different mixes of dispatched, executing, replaying and (with
// speculation) wrong-path or spec-forwarded µops.
func TestAbortReclaimNoNetLeak(t *testing.T) {
	cases := []struct {
		name   string
		cfg    Config
		kernel string
	}{
		{"baseline", DefaultConfig(), allocKernel},
		{"speculation", specAllocConfig(), specAllocKernel},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newTestMachine(t, tc.cfg)
			prog := asm.MustAssemble(tc.kernel)
			if _, err := m.Run(prog); err != nil {
				t.Fatalf("clean Run: %v", err)
			}
			checkPoolsComplete(t, m, "after clean run")
			full := tc.cfg.MaxCycles
			for i := 0; i < 8; i++ {
				m.cfg.MaxCycles = int64(40 + 23*i)
				if _, err := m.Run(prog); err == nil {
					t.Fatalf("abort %d: expected MaxCycles error", i)
				}
				m.cfg.MaxCycles = full
				if _, err := m.Run(prog); err != nil {
					t.Fatalf("recovery Run %d: %v", i, err)
				}
				checkPoolsComplete(t, m, "after abort recovery")
			}
		})
	}
}

// TestAbortReclaimWatchdogPath covers the watchdog's StallError return:
// a stuck fence (fault site) trips the watchdog mid-run, and the recovery
// run must drain every pooled object as usual.
func TestAbortReclaimWatchdogPath(t *testing.T) {
	m := newTestMachine(t, DefaultConfig())
	prog := asm.MustAssemble(allocKernel)
	if _, err := m.Run(prog); err != nil {
		t.Fatalf("clean Run: %v", err)
	}
	m.cfg.Faults = faults.NewInjector(&faults.Plan{Site: faults.SiteFenceStuck})
	if _, err := m.Run(prog); err == nil {
		t.Fatal("expected watchdog StallError with a stuck fence")
	}
	m.cfg.Faults = nil
	if _, err := m.Run(prog); err != nil {
		t.Fatalf("recovery Run: %v", err)
	}
	checkPoolsComplete(t, m, "after watchdog recovery")
}

// TestReclaimAfterAbortSpeculation aborts mid-wrong-path (the kernel
// mispredicts constantly) and checks full recovery plus correct results.
func TestReclaimAfterAbortSpeculation(t *testing.T) {
	cfg := specAllocConfig()
	cfg.MaxCycles = 60
	m := newTestMachine(t, cfg)
	prog := asm.MustAssemble(specAllocKernel)
	if _, err := m.Run(prog); err == nil {
		t.Fatal("expected MaxCycles error")
	}
	m.cfg.MaxCycles = DefaultConfig().MaxCycles
	res, err := m.Run(prog)
	if err != nil {
		t.Fatalf("Run after abort: %v", err)
	}
	if res.Stats.WrongPathFetched == 0 {
		t.Fatal("kernel never exercised wrong-path fetch")
	}
	if got := m.Reg(isa.Reg(1)); got != 0 {
		t.Errorf("x1 = %d after loop, want 0", got)
	}
	checkPoolsComplete(t, m, "after speculative abort recovery")
}
