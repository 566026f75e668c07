package diffcheck

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"pandora/internal/isa"
	"pandora/internal/mem"
	"pandora/internal/parallel"
)

// TestCheckWorkerCountIdentity checks that the sweep's report — its text,
// its failures and their minimized repros — does not depend on how many
// workers share the cases, with and without the injected bug. Workers
// reuse their simulators across cases, so state one case leaves behind
// would show up as a report that changes with the case-to-worker mapping.
func TestCheckWorkerCountIdentity(t *testing.T) {
	for _, tc := range []struct {
		name    string
		subject Subject
	}{{"clean", nil}, {"BugSRAAsSRL", BugSRAAsSRL}} {
		var reps []Report
		for _, workers := range []int{1, 4} {
			rep, err := Check(context.Background(), Options{
				Programs: 64, MasksPerProgram: 1, Seed: 1, Workers: workers, Subject: tc.subject,
			})
			if err != nil {
				t.Fatal(err)
			}
			reps = append(reps, rep)
		}
		if reps[0].String() != reps[1].String() || !reflect.DeepEqual(reps[0], reps[1]) {
			t.Errorf("%s: report at 1 worker\n%s\ndiffers from the report at 4\n%s", tc.name, reps[0], reps[1])
		}
		if ok := tc.subject == nil; reps[0].Ok() != ok {
			t.Errorf("%s: Ok() = %v, want %v", tc.name, reps[0].Ok(), ok)
		}
	}
}

// TestReusedSimMatchesFresh runs a sequence of cases on one simulator,
// divergent runs interleaved with clean ones, and requires every verdict
// to equal a fresh RunCase's: a divergent run must leave nothing behind
// that changes the next case's verdict. Every third case is the injected
// bug's minimized repro, which diverges under BugSRAAsSRL; generated
// programs fill the rest, run both with the bug and without.
func TestReusedSimMatchesFresh(t *testing.T) {
	repro := Case{Name: "sra-repro", Init: InitMemory, Prog: isa.Program{
		{Op: isa.ADDI, Rd: 27, Rs1: 0, Imm: regionB},
		{Op: isa.LB, Rd: 11, Rs1: 27, Imm: 216},
		{Op: isa.SRAI, Rd: 11, Rs1: 11, Imm: 5},
		{Op: isa.HALT},
	}}
	var sim Sim
	variants := CacheVariants()
	diverged, cleanAfter := 0, 0
	for i := 0; i < 18; i++ {
		c := repro
		if i%3 != 0 {
			c = Case{Name: "gen", Prog: Generate(rand.New(rand.NewSource(parallel.Seed(1, i)))), Init: InitMemory}
		}
		golden := goldenRun(c, mem.New())
		if golden == nil {
			t.Fatalf("case %d does not halt", i)
		}
		v := variants[i%len(variants)]
		for _, mask := range []ToggleMask{0, AllMasks - 1, ToggleMask(i * maskStride % AllMasks)} {
			for _, subject := range []Subject{BugSRAAsSRL, nil} {
				got := sim.against(golden, c, mask, v, subject)
				if want := RunCase(c, mask, v, subject); !reflect.DeepEqual(got, want) {
					t.Fatalf("case %d (%s) toggles=%v cache=%s bug=%v: reused sim %v, fresh %v",
						i, c.Name, mask, v.Name, subject != nil, got, want)
				}
				if got != nil {
					diverged++
				} else if diverged > 0 {
					cleanAfter++
				}
			}
		}
	}
	if diverged == 0 || cleanAfter == 0 {
		t.Fatalf("%d divergent runs, %d clean runs after one: the sequence must have both", diverged, cleanAfter)
	}
}

// TestReusedRunAllocs pins what a steady-state sweep run allocates on a
// reused simulator against a shared golden. What is left is per run by
// design: PipeConfig's fresh optimization state and, on stride-pbuf, the
// stride prefetcher. A fresh RunCase allocates about 80–95 objects.
func TestReusedRunAllocs(t *testing.T) {
	c := Case{Name: "gen", Prog: Generate(rand.New(rand.NewSource(parallel.Seed(1, 5)))), Init: InitMemory}
	golden := goldenRun(c, mem.New())
	if golden == nil {
		t.Fatal("generated program does not halt")
	}
	for _, v := range CacheVariants() {
		for _, tc := range []struct {
			mask   ToggleMask
			budget float64
		}{{0, 2}, {AllMasks - 1, 11}} {
			var sim Sim
			if d := sim.against(golden, c, tc.mask, v, nil); d != nil {
				t.Fatalf("%s toggles=%v: %v", v.Name, tc.mask, d)
			}
			n := testing.AllocsPerRun(5, func() { sim.against(golden, c, tc.mask, v, nil) })
			if n > tc.budget {
				t.Errorf("%s toggles=%v: a reused run allocates %.0f objects, want at most %.0f",
					v.Name, tc.mask, n, tc.budget)
			}
		}
	}
}
