package pipeline

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"pandora/internal/asm"
	"pandora/internal/faults"
)

// fenceLivelockProg is the crafted livelock fixture: the fence-stuck
// structural fault makes FENCE wait for an *empty* store queue, but the
// younger SB's slot is allocated at rename and cannot drain until the
// fence retires — a circular wait the watchdog must name.
const fenceLivelockProg = `
	addi x1, x0, 1
	addi x2, x0, 0x700
	fence
	sb   x1, 0(x2)
	halt
`

func TestWatchdogLivelockDumpNamesStoreQueue(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = faults.NewInjector(&faults.Plan{Site: faults.SiteFenceStuck})
	m := newTestMachine(t, cfg)

	res, err := m.Run(asm.MustAssemble(fenceLivelockProg))
	if err == nil {
		t.Fatalf("livelocked run returned no error")
	}
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("error is %T (%v), want *StallError", err, err)
	}
	if se.Reason != ReasonWatchdog {
		t.Fatalf("Reason = %q, want %q", se.Reason, ReasonWatchdog)
	}
	if se.Dump == nil {
		t.Fatalf("StallError carries no CoreDump")
	}
	if res.Cycles <= 0 {
		t.Fatalf("partial Result not returned alongside the error: %+v", res)
	}
	d := se.Dump
	if d.Cycle != res.Cycles {
		t.Errorf("dump cycle %d != partial result cycles %d", d.Cycle, res.Cycles)
	}
	if d.WatchdogWindow != WatchdogWindow {
		t.Errorf("WatchdogWindow = %d, want %d", d.WatchdogWindow, WatchdogWindow)
	}
	if d.Oldest == nil {
		t.Fatalf("dump has no oldest µop")
	}
	if !strings.Contains(d.Oldest.WaitReason, "store queue") {
		t.Errorf("oldest wait reason %q does not name the store queue", d.Oldest.WaitReason)
	}
	if d.SQ.Used == 0 {
		t.Errorf("dump shows an empty store queue; the blocking store must appear")
	}
	if len(d.StoreQueue) == 0 {
		t.Errorf("dump carries no store-queue entries")
	}
	if len(d.LastRetired) == 0 {
		t.Errorf("dump carries no retire history (the two ADDIs retired)")
	}
	// The rendered error names the stalled resource too.
	if !strings.Contains(err.Error(), "store queue") {
		t.Errorf("error %q does not name the stalled resource", err)
	}
	// The dump serializes to valid JSON for artifact capture.
	var decoded map[string]any
	if uerr := json.Unmarshal(d.JSON(), &decoded); uerr != nil {
		t.Fatalf("CoreDump.JSON is not valid JSON: %v", uerr)
	}
	if decoded["reason"] != ReasonWatchdog {
		t.Errorf("JSON reason = %v, want %q", decoded["reason"], ReasonWatchdog)
	}
}

func TestWatchdogIssueDropDump(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = faults.NewInjector(&faults.Plan{Site: faults.SiteIssueDrop, TriggerCycle: 1, Count: 1})
	m := newTestMachine(t, cfg)

	_, err := m.Run(asm.MustAssemble("addi x1, x0, 5\nhalt\n"))
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("error is %T (%v), want *StallError", err, err)
	}
	if se.Reason != ReasonWatchdog || se.Dump == nil || se.Dump.Oldest == nil {
		t.Fatalf("unexpected stall shape: %+v", se)
	}
	if !strings.Contains(se.Dump.Oldest.WaitReason, "wakeup dropped") {
		t.Errorf("wait reason %q does not name the dropped wakeup", se.Dump.Oldest.WaitReason)
	}
}

func TestMaxCyclesReturnsPartialResult(t *testing.T) {
	// MaxCycles (3000) trips before the watchdog window: the error text is
	// the bare MaxCycles diagnostic, and the partial Result must still come
	// back so callers can see how far the run got.
	cfg := DefaultConfig()
	cfg.MaxCycles = 3000
	cfg.Faults = faults.NewInjector(&faults.Plan{Site: faults.SiteFenceStuck})
	m := newTestMachine(t, cfg)

	res, err := m.Run(asm.MustAssemble(fenceLivelockProg))
	if want := "pipeline: exceeded MaxCycles=3000 (livelock?)"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if res.Cycles <= 3000 || res.Retired == 0 {
		t.Errorf("partial result %+v, want >3000 cycles and the pre-fence retires", res)
	}
}

func TestMaxCyclesWrappedWhenSupervised(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 3000
	cfg.Faults = faults.NewInjector(&faults.Plan{Site: faults.SiteFenceStuck})
	m := newTestMachine(t, cfg)

	_, err := m.Run(asm.MustAssemble(fenceLivelockProg))
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("supervised MaxCycles not wrapped: %T (%v)", err, err)
	}
	if se.Reason != ReasonMaxCycles || se.Cause == nil || se.Dump == nil {
		t.Fatalf("stall = reason %q cause %v dump %v, want max-cycles with cause and dump",
			se.Reason, se.Cause, se.Dump != nil)
	}
	if !strings.Contains(se.Cause.Error(), "MaxCycles") {
		t.Errorf("wrapped cause %q lost the MaxCycles diagnostic", se.Cause)
	}
}

// TestPipelineErrorTextUnchanged pins that supervision wraps a stage
// failure without changing its text: a caller reading Error() sees the
// stage's own message, and errors.As still reaches the dump.
func TestPipelineErrorTextUnchanged(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = faults.NewInjector(&faults.Plan{Site: faults.SiteForward, TriggerCycle: 1, Count: 1})
	m := newTestMachine(t, cfg)
	_, err := m.Run(asm.MustAssemble("addi x1, x0, 5\nsd x1, 0x200(x0)\nld x2, 0x200(x0)\nhalt\n"))
	var se *StallError
	if !errors.As(err, &se) || se.Reason != ReasonPipelineError || se.Dump == nil {
		t.Fatalf("err = %T (%v), want a pipeline-error StallError with a dump", err, err)
	}
	if err.Error() != se.Cause.Error() || !strings.HasPrefix(err.Error(), "pipeline: cycle ") {
		t.Errorf("Error() = %q, want the stage error %q", err, se.Cause)
	}
}

// postHaltDrainProg retires halt behind 400 stores to distinct cold lines:
// with a 512-entry store queue every store is still queued when halt
// retires, and the in-order drain then runs far longer than the
// watchdog window with nothing left to retire.
func postHaltDrainProg() string { return coldStoresProg("") }

// coldStoresProg is 400 stores to distinct cold lines, then tail, then
// halt.
func coldStoresProg(tail string) string {
	var b strings.Builder
	b.WriteString("addi x1, x0, 7\n")
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&b, "sd x1, %d(x0)\n", 0x10000+64*i)
	}
	b.WriteString(tail)
	b.WriteString("halt\n")
	return b.String()
}

// TestPostHaltDrainIsProgress runs the store-queue drain after halt past
// the watchdog window: each store leaving the queue is progress, so the
// correct machine finishes cleanly instead of being declared livelocked.
func TestPostHaltDrainIsProgress(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SQSize = 512
	m := newTestMachine(t, cfg)
	res, err := m.Run(asm.MustAssemble(postHaltDrainProg()))
	if err != nil {
		t.Fatalf("post-halt drain declared a stall: %v", err)
	}
	if res.Retired != 402 {
		t.Errorf("retired %d µops, want 402", res.Retired)
	}
	// The drain must outlast the window, or the test proves nothing.
	if res.Cycles < 2*WatchdogWindow {
		t.Errorf("run took %d cycles; the drain no longer outlasts the %d-cycle window",
			res.Cycles, WatchdogWindow)
	}
	if got := m.Memory().Read(0x10000+64*399, 8); got != 7 {
		t.Errorf("last store not performed: mem = %d", got)
	}
}

// TestFenceDrainIsProgress is the pre-halt case: a fence behind the same
// 400 cold stores issues only once they have all drained, so the ROB head
// waits on the store queue for longer than the window with nothing to
// retire. Each store leaving the queue is progress there too.
func TestFenceDrainIsProgress(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SQSize = 512
	m := newTestMachine(t, cfg)
	res, err := m.Run(asm.MustAssemble(coldStoresProg("fence\naddi x2, x0, 1\n")))
	if err != nil {
		t.Fatalf("fence waiting on the drain declared a stall: %v", err)
	}
	if res.Retired != 404 || m.Reg(2) != 1 {
		t.Errorf("retired %d µops, x2 = %d; want 404 and 1", res.Retired, m.Reg(2))
	}
	if res.Cycles < 2*WatchdogWindow {
		t.Errorf("run took %d cycles; the drain no longer outlasts the %d-cycle window",
			res.Cycles, WatchdogWindow)
	}
}

// TestStuckDrainTrips: the hold-off lasts only while stores keep
// leaving the queue. A store whose fill never returns (a 2^40-cycle fill
// delay from cycle 1000) stops the post-halt drain, and the watchdog
// fires a window after the last store left, not a window after halt.
func TestStuckDrainTrips(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SQSize = 512
	cfg.Faults = faults.NewInjector(&faults.Plan{Site: faults.SiteFillDelay, TriggerCycle: 1000, Payload: 1 << 40})
	m := newTestMachine(t, cfg)
	_, err := m.Run(asm.MustAssemble(postHaltDrainProg()))
	var se *StallError
	if !errors.As(err, &se) || se.Reason != ReasonWatchdog {
		t.Fatalf("stuck drain: got %v, want a watchdog stall", err)
	}
	// The last store leaves the queue as the stuck one starts its fill,
	// at cycle 999 or within one fill latency after it.
	if c := se.Dump.Cycle; c < 999+WatchdogWindow || c > 1300+WatchdogWindow {
		t.Errorf("watchdog fired at cycle %d, want a window after the last drain near cycle 1000", c)
	}
	if len(se.Dump.StoreQueue) == 0 || !se.Dump.StoreQueue[0].Dequeuing {
		t.Errorf("dump store queue %+v, want the stuck store dequeuing at its head", se.Dump.StoreQueue)
	}
}

func TestWatchdogSilentOnCleanRun(t *testing.T) {
	// A program whose run spans many windows' worth of retires never
	// trips the supervisor, and its result is the machine's own.
	src := `
		addi x1, x0, 0
		addi x2, x0, 50
	loop:
		addi x1, x1, 3
		sd   x1, 0x200(x0)
		ld   x3, 0x200(x0)
		addi x2, x2, -1
		bne  x2, x0, loop
		halt
	`
	m := newTestMachine(t, DefaultConfig())
	if _, err := m.Run(asm.MustAssemble(src)); err != nil {
		t.Fatalf("supervised clean run failed: %v", err)
	}
	if m.Reg(1) != 150 || m.Reg(3) != 150 {
		t.Errorf("x1 = %d, x3 = %d, want 150", m.Reg(1), m.Reg(3))
	}
}
