package main

import (
	"context"
	"fmt"

	"pandora/cmd/pandora/internal/cli"
	"pandora/internal/diffcheck"
	"pandora/internal/faults"
	"pandora/internal/serve"
)

// runCheck implements `pandora check`: the differential-oracle sweep that
// compares the pipeline against the functional emulator over a seeded
// corpus, under every optimization-toggle combination (sampled per
// program, covered in full across the corpus) and a spread of cache
// variants, with runtime invariant checking enabled throughout.
//
// The standard sweep executes through the serve.JobRunner the
// `pandora serve` service uses; only -inject (which wires a Subject the
// job API deliberately cannot express) drives diffcheck directly.
func runCheck(args []string) int {
	c := cli.New("check",
		cli.WithSeed(1, "corpus seed"),
		cli.WithParallel(),
		cli.WithVerbose(),
	)
	n := c.Flags().Int("n", 512, "generated program count (512 covers every toggle mask via the rotating schedule)")
	masks := c.Flags().Int("masks", 3, "extra random toggle masks per program")
	inject := c.Flags().Bool("inject", false, "inject a deliberate pipeline bug (SRA executed as SRL); the sweep must catch it")
	if err := c.Parse(args); err != nil {
		return 2
	}
	defer c.Close()

	if *inject {
		// The injected bug is the SiteMiscompile fault plan — the same
		// injector `pandora fault` sweeps, applied here as a Subject.
		// Inverted expectation: the sweep validates itself by catching it.
		rep, err := diffcheck.Check(context.Background(), diffcheck.Options{
			Programs:        *n,
			Seed:            *c.Seed,
			MasksPerProgram: *masks,
			Workers:         *c.Parallel,
			Log:             c.LogFunc(),
			Subject:         diffcheck.SubjectFromPlan(&faults.Plan{Site: faults.SiteMiscompile}),
		})
		if err != nil {
			return c.Errorf(1, "%v", err)
		}
		fmt.Print(rep)
		if rep.Ok() {
			fmt.Println("[INJECTED BUG NOT CAUGHT]")
			return 1
		}
		fmt.Println("[INJECTED BUG CAUGHT]")
		return 0
	}

	canon, err := serve.Canonical(serve.JobSpec{
		Kind:     serve.KindCheck,
		Seed:     *c.Seed,
		Programs: *n,
		Masks:    *masks,
	})
	if err != nil {
		return c.Errorf(2, "%v", err)
	}
	runner, _ := serve.Runner(serve.KindCheck)
	res, err := runner.Run(context.Background(), canon, serve.RunOpts{
		Workers: *c.Parallel,
		Log:     c.LogFunc(),
	})
	if err != nil {
		return c.Errorf(1, "%v", err)
	}
	fmt.Print(res.Text)
	if !res.Pass {
		return 1
	}
	fmt.Println("[CLEAN]")
	return 0
}
