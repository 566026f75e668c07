package diffcheck

import (
	"math/rand"
	"reflect"
	"testing"

	"pandora/internal/cache"
	"pandora/internal/isa"
	"pandora/internal/mem"
	"pandora/internal/obs"
	"pandora/internal/pipeline"
	"pandora/internal/taint"
)

// schedRun executes prog under one optimization mask with the chosen
// candidate-gathering path and returns everything observable: the Result
// (stats included), the full ordered obs trace (which encodes retire
// order cycle by cycle), the taint recorder's leak events, and the final
// architectural registers.
func schedRun(t *testing.T, prog isa.Program, mask ToggleMask, linear bool) (pipeline.Result, []obs.Event, *taint.Recorder, [isa.NumRegs]uint64) {
	t.Helper()
	cfg := PipeConfig(mask)
	tr := obs.NewTrace()
	cfg.Probe = tr
	cfg.LinearScheduler = linear
	st := taint.NewState()
	bases, span := ScratchRegions()
	if _, err := st.DefineSecret(taint.Secret{Name: "k", Base: bases[0], Len: span}); err != nil {
		t.Fatalf("DefineSecret: %v", err)
	}
	cfg.Taint = st
	mm := mem.New()
	InitMemory(mm)
	m, err := pipeline.New(cfg, mm, cache.MustNewHierarchy(cache.DefaultHierConfig()))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := m.Run(prog)
	if err != nil {
		t.Fatalf("Run(linear=%v): %v", linear, err)
	}
	var regs [isa.NumRegs]uint64
	for r := 0; r < isa.NumRegs; r++ {
		regs[r] = m.Reg(isa.Reg(r))
	}
	return res, tr.Events, st.Rec, regs
}

// TestSchedulerEquivalence diffs the bitset scheduler against the
// reference linear walk over a seeded corpus: for every program and
// toggle mask, the two candidate-gathering paths must agree on the Stats
// block, the full obs event stream (rename/issue/retire/squash, store
// queue and cache order, cycle for cycle — this is the retire-order
// check), the recorded taint-leak events, and the final architectural
// registers. Any divergence means the dispW/execW mask bookkeeping
// disagrees with the stages it mirrors.
func TestSchedulerEquivalence(t *testing.T) {
	const numPrograms = 120
	rng := rand.New(rand.NewSource(0xb17_5e7))
	for i := 0; i < numPrograms; i++ {
		prog := Generate(rng)
		// Cycle through the toggle space so every optimization class runs
		// under both schedulers many times, including the all-on mask.
		mask := ToggleMask(i * 11 % AllMasks)
		if i%16 == 0 {
			mask = AllMasks - 1
		}

		resL, evL, recL, regsL := schedRun(t, prog, mask, true)
		resB, evB, recB, regsB := schedRun(t, prog, mask, false)

		if resL.Stats != resB.Stats {
			t.Fatalf("program %d mask %v: stats diverge\nlinear: %+v\nbitset: %+v",
				i, mask, resL.Stats, resB.Stats)
		}
		if regsL != regsB {
			t.Fatalf("program %d mask %v: architectural registers diverge\nlinear: %v\nbitset: %v",
				i, mask, regsL, regsB)
		}
		if len(evL) != len(evB) {
			t.Fatalf("program %d mask %v: event counts diverge: linear=%d bitset=%d",
				i, mask, len(evL), len(evB))
		}
		for k := range evL {
			if evL[k] != evB[k] {
				t.Fatalf("program %d mask %v: event %d diverges\nlinear: %v\nbitset: %v",
					i, mask, k, evL[k], evB[k])
			}
		}
		if recL.Counts != recB.Counts {
			t.Fatalf("program %d mask %v: leak-event counts diverge\nlinear: %v\nbitset: %v",
				i, mask, recL.Counts, recB.Counts)
		}
		if !reflect.DeepEqual(recL.Events, recB.Events) {
			t.Fatalf("program %d mask %v: leak events diverge (linear %d, bitset %d events)",
				i, mask, len(recL.Events), len(recB.Events))
		}
	}
}
