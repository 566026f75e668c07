package pipeline

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"pandora/internal/asm"
	"pandora/internal/isa"
	"pandora/internal/obs"
)

// wakeRun runs src on a fresh machine with invariant checks on — so the
// per-issue readyW check runs every cycle — and returns the machine, the
// Result and the event trace. init, when non-nil, seeds data memory.
func wakeRun(t *testing.T, cfg Config, linear bool, init func(m *Machine), src string) (*Machine, Result, []obs.Event) {
	t.Helper()
	tr := obs.NewTrace()
	cfg.Probe = tr
	cfg.CheckInvariants = true
	cfg.LinearScheduler = linear
	m := newTestMachine(t, cfg)
	if init != nil {
		init(m)
	}
	res, err := m.Run(asm.MustAssemble(src))
	if err != nil {
		t.Fatalf("Run(linear=%v): %v", linear, err)
	}
	return m, res, tr.Events
}

// eventCycles returns the cycles of every k event at pc, in order.
func eventCycles(evs []obs.Event, k obs.Kind, pc int64) []int64 {
	var out []int64
	for _, e := range evs {
		if e.Kind == k && e.PC == pc {
			out = append(out, e.Cycle)
		}
	}
	return out
}

// firstCycle returns the first k event's cycle at pc, failing if none.
func firstCycle(t *testing.T, evs []obs.Event, k obs.Kind, pc int64) int64 {
	t.Helper()
	c := eventCycles(evs, k, pc)
	if len(c) == 0 {
		t.Fatalf("no %v event at pc=%d", k, pc)
	}
	return c[0]
}

// bothSchedulers runs the same case under the readyW and the linear
// scheduler and requires identical Results and event streams.
func bothSchedulers(t *testing.T, cfg func() Config, init func(m *Machine), src string) (*Machine, Result, []obs.Event) {
	t.Helper()
	m, res, evs := wakeRun(t, cfg(), false, init, src)
	_, resL, evsL := wakeRun(t, cfg(), true, init, src)
	if res != resL {
		t.Fatalf("schedulers diverge\nreadyW: %+v\nlinear: %+v", res, resL)
	}
	if len(evs) != len(evsL) {
		t.Fatalf("event counts diverge: readyW=%d linear=%d", len(evs), len(evsL))
	}
	for i := range evs {
		if evs[i] != evsL[i] {
			t.Fatalf("event %d diverges\nreadyW: %v\nlinear: %v", i, evs[i], evsL[i])
		}
	}
	return m, res, evs
}

// A load fused with its ADDI is woken when the ADDI issues and issues in
// the same cycle. The ADDI itself waits on a multiply, so it is woken by
// a completion first: both non-dispatch wake points fire in one chain.
func TestFusedLoadWakesWithAddi(t *testing.T) {
	const src = `
		addi x3, x0, 0x40
		addi x4, x0, 4
		mul  x5, x3, x4
		addi x1, x5, 8
		ld   x2, 0(x1)
		halt
	`
	init := func(m *Machine) { m.Memory().Write(0x108, 8, 0x1234) }
	for _, fuse := range []bool{true, false} {
		cfg := func() Config {
			c := DefaultConfig()
			c.FuseAddiLoad = fuse
			return c
		}
		m, _, evs := bothSchedulers(t, cfg, init, src)
		if got := m.Reg(2); got != 0x1234 {
			t.Fatalf("fuse=%v: x2 = %#x, want 0x1234", fuse, got)
		}
		mulDone := firstCycle(t, evs, obs.KindIssue, 2) + int64(cfg().MulLat)
		addi := firstCycle(t, evs, obs.KindIssue, 3)
		ld := firstCycle(t, evs, obs.KindIssue, 4)
		if addi != mulDone {
			t.Errorf("fuse=%v: ADDI issued at %d, want %d (the cycle its multiply completes)", fuse, addi, mulDone)
		}
		want := addi + int64(cfg().ALULat) // once the ADDI completes
		if fuse {
			want = addi // with the ADDI
		}
		if ld != want {
			t.Errorf("fuse=%v: load issued at %d, want %d", fuse, ld, want)
		}
	}
}

// A consumer of a value-predicted load is ready from the cycle after it
// dispatches: it issues on the predicted value while the load itself is
// still waiting for its base register.
func TestValuePredictedConsumerReadyAtDispatch(t *testing.T) {
	const src = `
		addi x3, x0, 0x48
		addi x4, x0, 0x20
		mul  x1, x3, x4
		ld   x5, 0(x1)
		add  x6, x5, x5
		halt
	`
	cfg := func() Config {
		c := DefaultConfig()
		c.Predictor = &eagerPredictor{last: map[int64]uint64{3: 21}}
		return c
	}
	init := func(m *Machine) { m.Memory().Write(0x900, 8, 21) }
	m, _, evs := bothSchedulers(t, cfg, init, src)
	if got := m.Reg(6); got != 42 {
		t.Fatalf("x6 = %d, want 42", got)
	}
	if n := m.Stats().ValueSquashes; n != 0 {
		t.Fatalf("correct prediction squashed %d times", n)
	}
	dispatched := firstCycle(t, evs, obs.KindRename, 4)
	consumer := firstCycle(t, evs, obs.KindIssue, 4)
	load := firstCycle(t, evs, obs.KindIssue, 3)
	if consumer != dispatched+1 {
		t.Errorf("consumer dispatched at %d issued at %d, want %d", dispatched, consumer, dispatched+1)
	}
	if consumer >= load {
		t.Errorf("consumer issued at %d, not before its predicted load (%d)", consumer, load)
	}
}

// A value misprediction squashes the load's consumers; they re-dispatch
// into freshly filled slots, and the stale consumer-mask bits the squash
// left behind must neither wake the wrong occupant nor lose a wakeup.
// The per-issue invariant check runs every cycle of both schedulers.
func TestRedispatchAfterSquash(t *testing.T) {
	const src = `
		addi x1, x0, 0x900
		ld   x3, 0(x1)
		add  x4, x3, x3
		addi x5, x0, 1
		add  x6, x4, x5
		mul  x7, x6, x6
		halt
	`
	cfg := func() Config {
		c := DefaultConfig()
		c.Predictor = &eagerPredictor{last: map[int64]uint64{1: 99}}
		return c
	}
	init := func(m *Machine) { m.Memory().Write(0x900, 8, 5) }
	m, _, evs := bothSchedulers(t, cfg, init, src)
	if n := m.Stats().ValueSquashes; n != 1 {
		t.Fatalf("ValueSquashes = %d, want 1", n)
	}
	for r, want := range map[isa.Reg]uint64{4: 10, 6: 11, 7: 121} {
		if got := m.Reg(r); got != want {
			t.Errorf("%v = %d, want %d", r, got, want)
		}
	}
	renames := eventCycles(evs, obs.KindRename, 2)
	issues := eventCycles(evs, obs.KindIssue, 2)
	if len(renames) != 2 || len(issues) != 2 {
		t.Fatalf("consumer renamed at %v and issued at %v, want twice each (squash + replay)", renames, issues)
	}
	loadDone := firstCycle(t, evs, obs.KindIssue, 1)
	if issues[1] <= loadDone {
		t.Errorf("replayed consumer issued at %d, not after its load issued (%d)", issues[1], loadDone)
	}
}

// A branch that issues on a wrong value prediction computes the wrong
// direction long before its load completes. The load's completion
// squashes and replays it, so the early direction is not a divergence:
// the branch's control-flow check waits for retire.
func TestWrongPredictionFeedingBranchReplays(t *testing.T) {
	const src = `
		addi x3, x0, 0x48
		addi x4, x0, 0x20
		mul  x1, x3, x4
		ld   x5, 0(x1)
		beq  x5, x0, 6
		addi x6, x0, 1
		halt
	`
	cfg := func() Config {
		c := DefaultConfig()
		c.Predictor = &eagerPredictor{last: map[int64]uint64{3: 0}}
		return c
	}
	init := func(m *Machine) { m.Memory().Write(0x900, 8, 21) }
	m, _, evs := bothSchedulers(t, cfg, init, src)
	if n := m.Stats().ValueSquashes; n != 1 {
		t.Fatalf("ValueSquashes = %d, want 1", n)
	}
	if got := m.Reg(6); got != 1 {
		t.Errorf("x6 = %d, want 1 (the branch falls through)", got)
	}
	// The branch issued on the prediction, before its load.
	if br, ld := firstCycle(t, evs, obs.KindIssue, 4), firstCycle(t, evs, obs.KindIssue, 3); br >= ld {
		t.Errorf("branch issued at %d, not before its predicted load (%d)", br, ld)
	}
}

// TestPredictedControlCheckedAtRetire pins that deferring the check does
// not drop it: a branch or JALR that read a value prediction and still
// disagrees with the oracle at retire, where every prediction it read has
// verified, fails the run and does not retire.
func TestPredictedControlCheckedAtRetire(t *testing.T) {
	for _, tc := range []struct {
		name string
		u    uop
		want string
	}{
		{"branch", uop{class: isa.ClassBranch, inst: isa.Inst{Op: isa.BEQ, Rs1: 5, Imm: 2},
			srcVals: [2]uint64{21, 0}, oracleTaken: true}, "branch divergence at pc=4"},
		{"jalr", uop{class: isa.ClassJump, inst: isa.Inst{Op: isa.JALR, Rd: 1, Rs1: 5},
			srcVals: [2]uint64{9, 0}, nextPC: 7}, "indirect jump divergence at pc=4"},
	} {
		m := newTestMachine(t, DefaultConfig())
		u := m.allocUop()
		*u = tc.u
		u.seq, u.pc, u.stage, u.predData = 1, 4, stDone, true
		m.robPush(u)
		m.retire()
		if m.err == nil || !strings.Contains(m.err.Error(), tc.want) {
			t.Errorf("%s: retire error = %v, want %q", tc.name, m.err, tc.want)
		}
		if m.robN != 1 || m.stats.Retired != 0 {
			t.Errorf("%s: divergent µop retired", tc.name)
		}
	}
}

// queueStore appends a store µop with the given sequence number, address,
// width and data to m's store queue.
func queueStore(m *Machine, seq, addr uint64, width int, val uint64, addrReady bool) {
	u := m.allocUop()
	u.seq, u.class = seq, isa.ClassStore
	u.addr, u.memWidth, u.storeVal = addr, width, val
	e := m.allocSQ(u)
	e.addrReady = addrReady
	m.sq = append(m.sq, e)
}

// TestForwardingOverlap pins readWithForward's early skip of store-queue
// entries that cannot overlap the load: for partial overlaps, width
// mismatches and accesses within 8 bytes of 2^64, it must return exactly
// what the per-byte rule gives, and agree with forwardScan's independent
// youngest-first recomputation.
func TestForwardingOverlap(t *testing.T) {
	type st struct {
		addr  uint64
		width int
		val   uint64
	}
	const top = math.MaxUint64
	cases := []struct {
		name   string
		stores []st // oldest first
		addr   uint64
		width  int
	}{
		{"exact", []st{{0x100, 8, 0x1122334455667788}}, 0x100, 8},
		{"load inside store", []st{{0x100, 8, 0x1122334455667788}}, 0x104, 4},
		{"load straddles store end", []st{{0x100, 4, 0xaabbccdd}}, 0x102, 8},
		{"load straddles store start", []st{{0x104, 4, 0xaabbccdd}}, 0x100, 8},
		{"narrow store in wide load", []st{{0x103, 1, 0xee}}, 0x100, 8},
		{"wide store narrow load", []st{{0x100, 8, 0x0102030405060708}}, 0x107, 1},
		{"halfword over word", []st{{0x102, 2, 0xbeef}}, 0x100, 4},
		{"adjacent below", []st{{0x0fc, 4, 0xffffffff}}, 0x100, 4},
		{"adjacent above", []st{{0x104, 4, 0xffffffff}}, 0x100, 4},
		{"younger overwrites older", []st{{0x100, 8, 0x1111111111111111}, {0x102, 2, 0x2222}, {0x0fe, 4, 0x33333333}}, 0x100, 8},
		{"mixed disjoint and overlapping", []st{{0x200, 8, 1}, {0x104, 2, 0x5555}, {0x300, 4, 2}}, 0x100, 8},
		{"store ends at 2^64", []st{{top - 3, 4, 0xdeadbeef}}, top - 7, 8},
		{"store below 2^64", []st{{top - 7, 4, 0xdeadbeef}}, top - 5, 2},
		{"load wraps onto store at 0", []st{{0, 8, 0x0102030405060708}}, top - 1, 4},
		{"load wraps past store at 2^64-2", []st{{top - 1, 1, 0x77}, {0, 2, 0x6666}}, top - 2, 8},
		{"store wraps", []st{{top - 1, 4, 0x99887766}}, top - 3, 8},
		{"store wraps onto load at 0", []st{{top - 1, 8, 0x0102030405060708}}, 0, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newTestMachine(t, DefaultConfig())
			for i := uint64(0); i < 24; i++ {
				m.mem.StoreByte(0xf8+i, byte(0xa0+i))
				m.mem.StoreByte(top-11+i, byte(0x50+i)) // wraps to 0..11
			}
			for i, s := range tc.stores {
				queueStore(m, uint64(i+1), s.addr, s.width, s.val, true)
			}
			loadSeq := uint64(len(tc.stores) + 1)

			// The per-byte rule, oldest store first.
			var want uint64
			covered := 0
			for i := tc.width - 1; i >= 0; i-- {
				a := tc.addr + uint64(i)
				b := m.mem.LoadByte(a)
				hit := false
				for _, s := range tc.stores {
					if a >= s.addr && a < s.addr+uint64(s.width) {
						b = byte(s.val >> (8 * (a - s.addr)))
						hit = true
					}
				}
				if hit {
					covered++
				}
				want = want<<8 | uint64(b)
			}
			wantAny, wantFull := covered > 0, covered == tc.width

			val, full, any, _, _, _ := m.readWithForward(tc.addr, tc.width, loadSeq)
			if m.err != nil {
				t.Fatalf("readWithForward: %v", m.err)
			}
			if val != want || full != wantFull || any != wantAny {
				t.Errorf("readWithForward = (%#x full=%v any=%v), per-byte rule (%#x full=%v any=%v)",
					val, full, any, want, wantFull, wantAny)
			}
			sval, sfull, sany := m.forwardScan(tc.addr, tc.width, loadSeq, nil, nil)
			if sval != val || sfull != full || sany != any {
				t.Errorf("forwardScan = (%#x full=%v any=%v), readWithForward (%#x full=%v any=%v)",
					sval, sfull, sany, val, full, any)
			}
		})
	}
}

// disjoint may only skip a store that the per-byte rule would not
// forward a single byte from; checked exhaustively around 0x100, around
// 2^64 and across the wrap.
func TestDisjointMatchesPerByteRule(t *testing.T) {
	var addrs []uint64
	for d := uint64(0); d < 24; d++ {
		addrs = append(addrs, 0xf4+d, math.MaxUint64-11+d) // the latter wraps to 0..11
	}
	for _, a := range addrs {
		for _, aw := range []int{1, 2, 4, 8} {
			for _, s := range addrs {
				for _, sw := range []int{1, 2, 4, 8} {
					overlap := false
					for i := 0; i < aw; i++ {
						b := a + uint64(i)
						if b >= s && b < s+uint64(sw) {
							overlap = true
						}
					}
					if overlap && disjoint(a, aw, s, sw) {
						t.Fatalf("disjoint(%#x/%d, %#x/%d) skips a store the per-byte rule forwards from", a, aw, s, sw)
					}
				}
			}
		}
	}
}

// The early skip must not hide an unresolved older store: whichever older
// entry is unresolved, and however far it is from the load, the
// forwarded-past-unresolved-store failure fires. A younger unresolved
// store is not the load's business.
func TestForwardPastUnresolvedStoreFails(t *testing.T) {
	addrs := []uint64{0x100, 0x4000, math.MaxUint64 - 3, 0x108}
	for k := range addrs {
		m := newTestMachine(t, DefaultConfig())
		for i, a := range addrs {
			queueStore(m, uint64(i+1), a, 4, 0, i != k)
		}
		m.readWithForward(0x800, 8, uint64(len(addrs)+1))
		want := fmt.Sprintf("load forwarded past unresolved store #%d", k+1)
		if m.err == nil || !strings.Contains(m.err.Error(), want) {
			t.Errorf("unresolved entry %d: err = %v, want %q", k, m.err, want)
		}
		m.err = nil
		m.readWithForward(0x800, 8, uint64(k+1))
		if m.err != nil {
			t.Errorf("load older than unresolved entry %d: %v", k, m.err)
		}
	}
}

// The readyW checks must object to each way the bitset can go wrong: a
// ready bit on a µop that is not dispatched, a ready µop with no bit (a
// lost wakeup), and a bit on a µop whose producer is still executing (a
// premature one).
func TestReadyInvariantsCatchCorruption(t *testing.T) {
	setup := func() (m *Machine, exec, ready, waiting *uop) {
		m = newTestMachine(t, DefaultConfig())
		m.prepareProgram(asm.MustAssemble(allocKernel))
		push := func() *uop {
			u := m.allocUop()
			u.t = &m.tmpl[0]
			u.seq = uint64(m.robN + 1)
			m.robPush(u)
			return u
		}
		exec = push()
		exec.stage, exec.doneC = stExecuting, math.MaxInt64
		m.markExecuting(exec)
		ready, waiting = push(), push()
		waiting.prod[0] = exec
		for _, u := range []*uop{ready, waiting} {
			u.stage = stDispatched
			m.markDispatched(u)
			m.subscribe(u)
		}
		m.checkInvariants()
		m.checkReady()
		if m.err != nil {
			t.Fatalf("consistent state rejected: %v", m.err)
		}
		return m, exec, ready, waiting
	}
	bit := func(u *uop) (int, uint64) { return u.slot >> 6, 1 << (uint(u.slot) & 63) }

	m, exec, _, _ := setup()
	w, b := bit(exec)
	m.readyW[w] |= b
	if m.checkInvariants(); m.err == nil || !strings.Contains(m.err.Error(), "readyW bit set at slot") {
		t.Errorf("ready bit on an executing µop: err = %v", m.err)
	}

	m, _, ready, _ := setup()
	w, b = bit(ready)
	m.readyW[w] &^= b
	if m.checkReady(); m.err == nil || !strings.Contains(m.err.Error(), "readyW bit=false") {
		t.Errorf("lost wakeup: err = %v", m.err)
	}

	m, _, _, waiting := setup()
	w, b = bit(waiting)
	m.readyW[w] |= b
	if m.checkReady(); m.err == nil || !strings.Contains(m.err.Error(), "readyW bit=true") {
		t.Errorf("premature wakeup: err = %v", m.err)
	}
}
