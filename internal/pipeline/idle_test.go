package pipeline

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"pandora/internal/asm"
	"pandora/internal/faults"
)

// missChainProg walks 40 cold lines, each load's address depending on
// the one before, with a multiply, a divide and a store per step: every
// miss leaves the machine waiting with a full issue queue (rename stalls)
// and nothing else to do.
const missChainProg = `
	addi x1, x0, 40
	lui  x29, 64
loop:
	ld   x3, 0(x29)
	add  x2, x2, x3
	mul  x4, x2, x1
	div  x5, x4, x1
	sd   x5, 8(x29)
	lui  x6, 8
	add  x29, x29, x6
	addi x1, x1, -1
	bne  x1, x0, loop
	fence
	halt
`

// idleRun is one Run's observable outcome.
type idleRun struct {
	res     Result
	err     string
	dump    []byte
	skipped int64
}

// runIdle runs src on a fresh machine built from cfg, under the
// reference scheduler (which ticks every cycle) when linear is set. plan,
// when non-nil, arms a fresh injector.
func runIdle(t *testing.T, cfg Config, src string, plan *faults.Plan, linear bool) idleRun {
	t.Helper()
	cfg.LinearScheduler = linear
	if plan != nil {
		cfg.Faults = faults.NewInjector(plan)
	}
	m := newTestMachine(t, cfg)
	res, err := m.Run(asm.MustAssemble(src))
	out := idleRun{res: res, skipped: m.Metrics().Snapshot().GetInt64("pipeline.idle_skipped")}
	if err != nil {
		out.err = err.Error()
		var se *StallError
		if errors.As(err, &se) {
			out.dump = se.Dump.JSON()
		}
	}
	return out
}

// sameAsReference runs src both ways and fails unless the Result (cycle
// count and Stats), the error text and the CoreDump agree. It returns
// the skipping run, for the caller to check what was skipped.
func sameAsReference(t *testing.T, cfg Config, src string, plan *faults.Plan) idleRun {
	t.Helper()
	ref := runIdle(t, cfg, src, plan, true)
	got := runIdle(t, cfg, src, plan, false)
	if ref.res != got.res {
		t.Errorf("Result diverges from the reference:\nreference %+v\nskip      %+v", ref.res, got.res)
	}
	if ref.err != got.err {
		t.Errorf("error diverges from the reference:\nreference %q\nskip      %q", ref.err, got.err)
	}
	if !bytes.Equal(ref.dump, got.dump) {
		t.Errorf("CoreDump diverges from the reference:\nreference %s\nskip      %s", ref.dump, got.dump)
	}
	if ref.skipped != 0 {
		t.Errorf("the reference scheduler skipped %d cycles; it must tick every one", ref.skipped)
	}
	return got
}

// TestIdleSkipRenameStallCounts: over a long miss stall the skipped
// cycles are charged to the rename-stall counter that fired, so every
// Stats field matches the reference.
func TestIdleSkipRenameStallCounts(t *testing.T) {
	got := sameAsReference(t, DefaultConfig(), missChainProg, nil)
	s := got.res.Stats
	if stalls := s.RenameStallIQ + s.RenameStallROB + s.RenameStallSQ + s.RenameStallLQ + s.RenameStallPRF; stalls < 1000 {
		t.Errorf("only %d rename-stall cycles; the fixture must stall rename behind its misses", stalls)
	}
	if got.skipped < got.res.Cycles/4 {
		t.Errorf("skipped %d of %d cycles; the misses leave most cycles idle", got.skipped, got.res.Cycles)
	}
}

// TestIdleSkipWatchdogCycle: a dropped wakeup leaves the machine idle
// until the watchdog fires. The skip jumps to the watchdog's cycle, not
// past it: the abort, its error text and its CoreDump match the
// reference.
func TestIdleSkipWatchdogCycle(t *testing.T) {
	for _, trigger := range []int64{1, 30, 200} {
		t.Run(fmt.Sprint("trigger", trigger), func(t *testing.T) {
			got := sameAsReference(t, DefaultConfig(), missChainProg,
				&faults.Plan{Site: faults.SiteIssueDrop, TriggerCycle: trigger})
			if got.err == "" {
				t.Fatal("the dropped wakeup did not stall the machine")
			}
			if got.skipped < WatchdogWindow/2 {
				t.Errorf("skipped %d cycles of a %d-cycle watchdog wait", got.skipped, WatchdogWindow)
			}
		})
	}
}

// TestIdleSkipMaxCycles: a MaxCycles bound that falls inside a long idle
// stretch (a fill delayed by 2^20 cycles) trips on the same cycle, with
// the same partial Result, as under the reference.
func TestIdleSkipMaxCycles(t *testing.T) {
	for _, max := range []int64{500, 3000, 9999} {
		t.Run(fmt.Sprint("max", max), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.MaxCycles = max
			got := sameAsReference(t, cfg, missChainProg,
				&faults.Plan{Site: faults.SiteFillDelay, TriggerCycle: 1, Payload: 1 << 20})
			want := fmt.Sprintf("pipeline: exceeded MaxCycles=%d (livelock?)", max)
			if got.err != want || got.res.Cycles != max+1 {
				t.Errorf("got %q after %d cycles, want %q after %d", got.err, got.res.Cycles, want, max+1)
			}
		})
	}
}

// TestIdleSkipCancelCheckpoint: a cancelled run stops at the first
// checkpoint cycle even when that cycle falls inside an idle stretch the
// skip would otherwise jump over.
func TestIdleSkipCancelCheckpoint(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cancel = &CancelFlag{}
	cfg.Cancel.Cancel()
	got := sameAsReference(t, cfg, missChainProg,
		&faults.Plan{Site: faults.SiteFillDelay, TriggerCycle: 1, Payload: 1 << 20})
	if got.err != ErrCancelled.Error() || got.res.Cycles != cancelCheckInterval {
		t.Errorf("got %q after %d cycles, want %q at the first checkpoint (%d)",
			got.err, got.res.Cycles, ErrCancelled, cancelCheckInterval)
	}
	if got.skipped == 0 {
		t.Error("nothing was skipped before the checkpoint")
	}
}
