package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"pandora/cmd/pandora/internal/cli"
	"pandora/internal/serve"
)

// runFault implements `pandora fault`: the fault-injection campaign. It
// sweeps seeded fault plans over every site class, attributes each caught
// fault to a detector (watchdog, invariant, oracle, state-diff, timing),
// and reports per-site detection rates and latencies. With -journal the
// campaign checkpoints after every trial and -resume continues an
// interrupted run, producing the same report byte for byte.
//
// The campaign executes through the serve.JobRunner the `pandora serve`
// service uses; the journal/resume/dump-dir knobs travel as RunOpts
// because they change how a result is computed, never what it is.
func runFault(args []string) int {
	c := cli.New("fault",
		cli.WithSeed(1, "campaign master seed"),
		cli.WithParallel(),
		cli.WithJSON("emit the full report as JSON"),
		cli.WithVerbose(),
	)
	fs := c.Flags()
	trials := fs.Int("trials", 0, "trials per fault site (0 = default)")
	sitesFlag := fs.String("sites", "", "comma-separated fault sites (default: all campaign sites)")
	journalPath := fs.String("journal", "", "checkpoint journal file (enables resume)")
	resume := fs.Bool("resume", false, "resume a journaled campaign instead of restarting")
	dumpDir := fs.String("dump-dir", "", "write CoreDump JSON artifacts of supervised aborts here")
	if err := c.Parse(args); err != nil {
		return 2
	}
	defer c.Close()

	spec := serve.JobSpec{Kind: serve.KindFault, Seed: *c.Seed, Trials: *trials}
	if *sitesFlag != "" {
		for _, name := range strings.Split(*sitesFlag, ",") {
			spec.Sites = append(spec.Sites, strings.TrimSpace(name))
		}
	}
	if *resume && *journalPath == "" {
		return c.Errorf(2, "-resume needs -journal")
	}

	canon, err := serve.Canonical(spec)
	if err != nil {
		return c.Errorf(2, "%v", err)
	}
	runner, _ := serve.Runner(serve.KindFault)
	res, err := runner.Run(context.Background(), canon, serve.RunOpts{
		Workers: *c.Parallel,
		Log:     c.LogFunc(),
		Journal: *journalPath,
		Resume:  *resume,
		DumpDir: *dumpDir,
	})
	if err != nil {
		return c.Errorf(1, "%v", err)
	}

	if *c.JSON {
		var buf bytes.Buffer
		if err := json.Indent(&buf, res.Output, "", "  "); err != nil {
			return c.Errorf(1, "%v", err)
		}
		buf.WriteByte('\n')
		os.Stdout.Write(buf.Bytes())
	} else {
		fmt.Print(res.Text)
	}

	if !res.Pass {
		fmt.Fprintf(os.Stderr, "pandora: fault: %s\n", res.Note)
		fmt.Println("[FAULT CAMPAIGN FAILED]")
		return 1
	}
	fmt.Println("[FAULT CAMPAIGN OK]")
	return 0
}
