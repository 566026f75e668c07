package pipeline

import (
	"errors"
	"math/rand"
	"testing"

	"pandora/internal/cache"
	"pandora/internal/isa"
	"pandora/internal/mem"
	"pandora/internal/obs"
)

// TestDeterminism: two machines with identical configuration and inputs
// produce identical cycle counts and statistics — the property every
// experiment in this repository relies on.
func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for name, mk := range optVariants() {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 10; i++ {
				prog := randProgram(rng)
				runOnce := func() (Result, Stats) {
					m, err := New(mk(), mem.New(), cache.MustNewHierarchy(cache.DefaultHierConfig()))
					if err != nil {
						t.Fatal(err)
					}
					res, err := m.Run(prog)
					if err != nil {
						t.Fatal(err)
					}
					return res, m.Stats()
				}
				r1, s1 := runOnce()
				r2, s2 := runOnce()
				if r1.Cycles != r2.Cycles || s1 != s2 {
					t.Fatalf("nondeterministic run: %d vs %d cycles\n%+v\n%+v",
						r1.Cycles, r2.Cycles, s1, s2)
				}
			}
		})
	}
}

// TestRetiredMatchesDynamicCount: the pipeline retires exactly the
// dynamic instruction count the functional emulator executes.
func TestRetiredMatchesDynamicCount(t *testing.T) {
	m := newTestMachine(t, DefaultConfig())
	res := run(t, m, `
		addi x1, x0, 10
	loop:
		addi x1, x1, -1
		bne  x1, x0, loop
		halt
	`)
	// 1 + 10*2 + 1 = 22 dynamic instructions.
	if res.Retired != 22 {
		t.Errorf("retired = %d, want 22", res.Retired)
	}
}

// TestCyclesBoundedBelow: a program can never finish faster than its
// dynamic length divided by the fetch width.
func TestCyclesBoundedBelow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		prog := randProgram(rng)
		m, err := New(DefaultConfig(), mem.New(), cache.MustNewHierarchy(cache.DefaultHierConfig()))
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(prog)
		if err != nil {
			t.Fatal(err)
		}
		minCycles := int64(res.Retired) / int64(DefaultConfig().FetchWidth)
		if res.Cycles < minCycles {
			t.Fatalf("impossible IPC: %d retired in %d cycles", res.Retired, res.Cycles)
		}
	}
}

// TestNonSpeculativeOptsHelpInAggregate: reuse/simplification/packing are
// non-speculative, so across a program population they must not cost
// cycles. (Per-program "never slower" is false even in real hardware:
// shortening one instruction's latency reorders issue and can shift cache
// replacement — a classic scheduling anomaly — so the assertion is on the
// aggregate.)
func TestNonSpeculativeOptsHelpInAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	nonSpec := []string{"reuse-sv", "reuse-sn", "compsimp", "packing"}
	variants := optVariants()
	totals := map[string]int64{}
	var baseTotal int64
	for i := 0; i < 30; i++ {
		prog := randProgram(rng)
		baseTotal += runCycles(t, variants["baseline"](), prog)
		for _, name := range nonSpec {
			totals[name] += runCycles(t, variants[name](), prog)
		}
	}
	for _, name := range nonSpec {
		if totals[name] > baseTotal {
			t.Errorf("%s slower than baseline in aggregate (%d > %d cycles over 30 programs)",
				name, totals[name], baseTotal)
		}
	}
}

func runCycles(t *testing.T, cfg Config, prog isa.Program) int64 {
	t.Helper()
	m, err := New(cfg, mem.New(), cache.MustNewHierarchy(cache.DefaultHierConfig()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	return res.Cycles
}

// TestValueSquashRecovery: a deliberately unpredictable load under an
// eager predictor must squash and still produce correct results.
func TestValueSquashRecovery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Predictor = newEagerPredictor()
	m := newTestMachine(t, cfg)
	res := run(t, m, `
		addi x1, x0, 0x900
		addi x9, x0, 16
		addi x2, x0, 0
	loop:
		sd   x9, 0(x1)       # value changes every iteration
		ld   x3, 0(x1)
		add  x2, x2, x3      # consumer of the (mis)predicted value
		addi x9, x9, -1
		bne  x9, x0, loop
		halt
	`)
	if got := m.Reg(2); got != 16*17/2 {
		t.Errorf("sum = %d, want %d", got, 16*17/2)
	}
	if m.Stats().ValueSquashes == 0 {
		t.Error("eager predictor on changing values must squash")
	}
	if res.Cycles <= 0 {
		t.Error("no cycles")
	}
}

// eagerPredictor always predicts the last value with full confidence —
// worst case for squash coverage.
type eagerPredictor struct {
	last map[int64]uint64
}

func newEagerPredictor() *eagerPredictor { return &eagerPredictor{last: map[int64]uint64{}} }

func (p *eagerPredictor) Predict(pc int64) (uint64, bool) {
	v, ok := p.last[pc]
	return v, ok
}

func (p *eagerPredictor) Resolve(pc int64, actual uint64, predicted bool, predictedVal uint64) bool {
	p.last[pc] = actual
	return predicted && predictedVal != actual
}

func (p *eagerPredictor) Squash() {}
func (p *eagerPredictor) Flush()  { p.last = map[int64]uint64{} }

// TestEventLogOrdering: per µop, dispatch ≤ issue ≤ retire cycles.
func TestEventLogOrdering(t *testing.T) {
	cfg := DefaultConfig()
	tr := obs.NewTrace()
	cfg.Probe = tr
	m := newTestMachine(t, cfg)
	run(t, m, `
		addi x1, x0, 5
		mul  x2, x1, x1
		sd   x2, 0x100(x0)
		ld   x3, 0x100(x0)
		halt
	`)
	type times struct{ dispatch, issue, retire int64 }
	seen := map[uint64]*times{}
	for _, e := range tr.Events {
		if e.Seq == 0 {
			continue // machine-level and cache events
		}
		tt := seen[e.Seq]
		if tt == nil {
			tt = &times{-1, -1, -1}
			seen[e.Seq] = tt
		}
		switch e.Kind {
		case obs.KindRename:
			tt.dispatch = e.Cycle
		case obs.KindIssue:
			tt.issue = e.Cycle
		case obs.KindRetire:
			tt.retire = e.Cycle
		}
	}
	for seq, tt := range seen {
		if tt.issue >= 0 && tt.dispatch >= 0 && tt.issue < tt.dispatch {
			t.Errorf("µop %d issued before dispatch (%d < %d)", seq, tt.issue, tt.dispatch)
		}
		if tt.retire >= 0 && tt.issue >= 0 && tt.retire < tt.issue {
			t.Errorf("µop %d retired before issue (%d < %d)", seq, tt.retire, tt.issue)
		}
	}
}

func TestResourceStallCounters(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() Config
		src  string
		stat func(Stats) uint64
	}{
		{
			"LQ", func() Config { c := DefaultConfig(); c.LQSize = 1; return c },
			`addi x1, x0, 0x100
			 ld x2, 0(x1)
			 ld x3, 64(x1)
			 ld x4, 128(x1)
			 ld x5, 192(x1)
			 halt`,
			func(s Stats) uint64 { return s.RenameStallLQ },
		},
		{
			"ROB", func() Config {
				c := DefaultConfig()
				c.ROBSize = 4
				c.IQSize = 4
				return c
			},
			`addi x1, x0, 100
			 div x2, x1, x1
			 addi x3, x0, 1
			 addi x4, x0, 1
			 addi x5, x0, 1
			 addi x6, x0, 1
			 addi x7, x0, 1
			 halt`,
			func(s Stats) uint64 { return s.RenameStallROB },
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := newTestMachine(t, c.cfg())
			run(t, m, c.src)
			if c.stat(m.Stats()) == 0 {
				t.Errorf("expected %s stalls: %+v", c.name, m.Stats())
			}
		})
	}
}

func TestErrorPaths(t *testing.T) {
	h := cache.MustNewHierarchy(cache.DefaultHierConfig())
	if _, err := New(DefaultConfig(), nil, h); err == nil {
		t.Error("nil memory accepted")
	}
	if _, err := New(DefaultConfig(), mem.New(), nil); err == nil {
		t.Error("nil hierarchy accepted")
	}
	bad := DefaultConfig()
	bad.FetchWidth = 0
	if _, err := New(bad, mem.New(), h); err == nil {
		t.Error("zero fetch width accepted")
	}
	bad = DefaultConfig()
	bad.PhysRegs = 33
	if _, err := New(bad, mem.New(), h); err == nil {
		t.Error("too-small PRF accepted")
	}
	bad = DefaultConfig()
	bad.StoreAddrLat = MaxStoreAddrLat + 1
	if _, err := New(bad, mem.New(), h); err == nil {
		t.Error("StoreAddrLat above MaxStoreAddrLat accepted")
	}
	m := MustNew(DefaultConfig(), mem.New(), h)
	_, err := m.Run(nil)
	var se *StallError
	if !errors.As(err, &se) || se.Reason != ReasonPipelineError || err.Error() != "pipeline: empty program" {
		t.Errorf("empty program: got %v, want a pipeline-error StallError", err)
	}
}

// TestMultipleRunsReuseMachine: the machine can run several programs in
// sequence; architectural registers reset, cache state persists.
func TestMultipleRunsReuseMachine(t *testing.T) {
	m := newTestMachine(t, DefaultConfig())
	r1 := run(t, m, `
		addi x1, x0, 0x700
		ld x2, 0(x1)     # cold: miss
		halt
	`)
	r2 := run(t, m, `
		addi x1, x0, 0x700
		ld x2, 0(x1)     # warm: hit
		halt
	`)
	if r2.Cycles >= r1.Cycles {
		t.Errorf("cache state did not persist: run1=%d run2=%d", r1.Cycles, r2.Cycles)
	}
	if m.Reg(5) != 0 {
		t.Error("registers not reset between runs")
	}
}

// TestTaintClearedBetweenRuns: RDCYCLE taint in one run must not poison
// the next.
func TestTaintClearedBetweenRuns(t *testing.T) {
	m := newTestMachine(t, DefaultConfig())
	run(t, m, `
		rdcycle x1
		sd x1, 0x400(x0)
		halt
	`)
	// Overwrite the tainted location with clean data; verification must
	// pass against the oracle.
	run(t, m, `
		addi x1, x0, 77
		sd x1, 0x400(x0)
		fence
		ld x2, 0x400(x0)
		addi x3, x2, 1
		halt
	`)
	if m.Reg(3) != 78 {
		t.Errorf("x3 = %d, want 78", m.Reg(3))
	}
}

// TestQuickDifferentialWithMemoryOpsHeavy stresses forwarding with mixed
// widths at overlapping addresses.
func TestForwardingMixedWidths(t *testing.T) {
	m := newTestMachine(t, DefaultConfig())
	run(t, m, `
		addi x1, x0, 0x500
		addi x2, x0, -1
		sd   x2, 0(x1)       # ffff ffff ffff ffff
		addi x3, x0, 0
		sh   x3, 2(x1)       # clear bytes 2-3
		sb   x3, 5(x1)       # clear byte 5
		ld   x4, 0(x1)       # mixes three in-flight stores
		lw   x5, 2(x1)       # partially covered
		halt
	`)
	if got := m.Reg(4); got != 0xffff00ff0000ffff {
		t.Errorf("ld = %#x", got)
	}
	if got := m.Reg(5); got != 0xff0000 {
		t.Errorf("lw = %#x", got)
	}
}

var _ = isa.ADD // keep isa import for helper signatures
