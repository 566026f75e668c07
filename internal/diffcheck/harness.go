package diffcheck

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"pandora/internal/isa"
	"pandora/internal/mem"
	"pandora/internal/parallel"
)

// Options parameterizes a harness sweep.
type Options struct {
	// Programs is the number of generated programs (default 512, matching
	// the rotating-mask schedule so one default sweep covers every toggle
	// combination).
	Programs int
	// Seed is the corpus seed; every program derives its own RNG from
	// parallel.Seed(Seed, index), so the corpus is identical at any
	// worker count.
	Seed int64
	// MasksPerProgram is how many random toggle masks each program runs
	// under, in addition to the three scheduled ones (all-off, all-on, and
	// a rotating mask that covers all 512 combinations across the corpus).
	// Default 3.
	MasksPerProgram int
	// Workers bounds the fan-out (0 = GOMAXPROCS).
	Workers int
	// Subject, when set, rewrites each program before the pipeline runs it
	// (bug injection).
	Subject Subject
	// SkipFixtures drops the hand-written and eBPF cases.
	SkipFixtures bool
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
}

// Failure is one minimized divergence.
type Failure struct {
	Name    string
	Mask    ToggleMask
	Variant string
	Div     Divergence
	Repro   isa.Program
}

// maxFailures caps how many failures keep their minimized repro in the
// report; further divergences are still counted, just without a listing.
const maxFailures = 4

// Report summarizes a sweep.
type Report struct {
	Programs int // cases examined (generated + fixtures)
	Runs     int // pipeline-vs-emulator comparisons executed
	Failures []Failure
}

// Ok reports a clean sweep.
func (r Report) Ok() bool { return len(r.Failures) == 0 }

func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "diffcheck: %d programs, %d differential runs, %d divergence(s)\n",
		r.Programs, r.Runs, len(r.Failures))
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "\nFAIL %s  toggles=%v  cache=%s\n  %v\n", f.Name, f.Mask, f.Variant, f.Div)
		if len(f.Repro) == 0 {
			fmt.Fprintf(&b, "  (repro not minimized: over the failure cap)\n")
			continue
		}
		fmt.Fprintf(&b, "  minimized repro (%d instructions):\n", len(f.Repro))
		for i, in := range f.Repro {
			fmt.Fprintf(&b, "    %3d: %v\n", i, in)
		}
	}
	return b.String()
}

// maskStride is the rotating schedule's step. It is odd, hence coprime
// with AllMasks (a power of two), so a 512-program sweep still visits
// every mask exactly once — but the walk spreads over the whole 9-bit
// space immediately, so even the 64-program CI corpus (`check -n 64`) exercises
// masks with the high speculation bits (sp, sf) set instead of only
// masks 0–63.
const maskStride = 73

// masksFor returns the toggle masks case index i runs under: the two
// extremes, a rotating mask so the whole corpus covers all 512
// combinations, and extra random draws.
func masksFor(i int, extra int, rng *rand.Rand) []ToggleMask {
	masks := []ToggleMask{0, AllMasks - 1, ToggleMask(i * maskStride % AllMasks)}
	for k := 0; k < extra; k++ {
		masks = append(masks, ToggleMask(rng.Intn(AllMasks)))
	}
	return masks
}

// worker is one Check worker's reusable state: the simulator its pipeline
// runs use, the memory its emulator golden runs use, and the generator it
// re-seeds for each case's mask draws.
type worker struct {
	sim    Sim
	golden mem.Memory
	rng    *rand.Rand
}

// Check runs the full differential sweep: fixtures plus Programs generated
// cases, each under several toggle masks, cycling through the cache
// variants. Divergent cases are minimized before being reported.
func Check(ctx context.Context, opts Options) (Report, error) {
	if opts.Programs <= 0 {
		opts.Programs = 512
	}
	if opts.MasksPerProgram <= 0 {
		opts.MasksPerProgram = 3
	}
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	variants := CacheVariants()

	var cases []Case
	if !opts.SkipFixtures {
		cases = Fixtures()
	}
	nFixtures := len(cases)
	rng := rand.New(rand.NewSource(0)) // re-seeded per program
	for i := 0; i < opts.Programs; i++ {
		// Corpus generation can dominate huge sweeps; honor deadlines
		// here too, not just between runs.
		if i&0xff == 0 {
			if err := ctx.Err(); err != nil {
				return Report{}, err
			}
		}
		rng.Seed(parallel.Seed(opts.Seed, i))
		cases = append(cases, Case{
			Name: fmt.Sprintf("gen-%04d", i),
			Prog: Generate(rng),
			Init: InitMemory,
		})
	}
	logf("diffcheck: %d fixtures + %d generated programs, %d cache variants",
		nFixtures, opts.Programs, len(variants))

	type caseResult struct {
		runs     int
		failures []Failure
	}
	// Each worker keeps its state for all its cases, and each case runs its
	// emulator golden once for all its masks. A case that diverges does not
	// return its worker.
	workers := parallel.Workers(opts.Workers)
	pool := parallel.NewPool(workers, func() (*worker, error) {
		return &worker{rng: rand.New(rand.NewSource(0))}, nil
	})
	results, err := parallel.Map(ctx, workers, cases,
		func(_ context.Context, i int, c Case) (caseResult, error) {
			var res caseResult
			w, _ := pool.Get()
			// Mask draws reuse the per-case seed so the schedule is a pure
			// function of (Seed, index).
			w.rng.Seed(parallel.Seed(opts.Seed+1, i))
			masks := masksFor(i, opts.MasksPerProgram, w.rng)
			v := variants[i%len(variants)]
			golden := goldenRun(c, &w.golden)
			for _, mask := range masks {
				res.runs++
				if golden == nil {
					continue // not comparable: the run agrees by definition
				}
				div := w.sim.against(golden, c, mask, v, opts.Subject)
				if div == nil {
					continue
				}
				min := Minimize(c, func(cand Case) bool {
					return RunCase(cand, mask, v, opts.Subject) != nil
				})
				res.failures = append(res.failures, Failure{
					Name: c.Name, Mask: mask, Variant: v.Name, Div: *div, Repro: min.Prog,
				})
				return res, nil // one minimized failure per case is enough signal
			}
			pool.Put(w)
			return res, nil
		})
	if err != nil {
		return Report{}, err
	}

	rep := Report{Programs: len(cases)}
	for _, r := range results {
		rep.Runs += r.runs
		for _, f := range r.failures {
			if len(rep.Failures) < maxFailures {
				rep.Failures = append(rep.Failures, f)
			} else {
				rep.Failures = append(rep.Failures, Failure{
					Name: f.Name, Mask: f.Mask, Variant: f.Variant, Div: f.Div,
				})
			}
		}
	}
	return rep, nil
}
