package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"pandora/cmd/pandora/internal/cli"
	"pandora/internal/core"
	"pandora/internal/faults"
	"pandora/internal/serve"
	"pandora/internal/taint"
)

// runScan implements `pandora scan`: the shadow-label leakage scanner.
// It runs a program with per-byte secret labels propagated alongside
// architectural state and reports every optimization whose trigger
// condition depended on a secret. Like a linter, it exits non-zero when
// leaks are found.
//
// The scenario and source paths execute through the same serve.JobRunner
// the `pandora serve` service uses, so the CLI and the job API cannot
// drift: one spec, one canonical form, one result.
func runScan(args []string) int {
	c := cli.New("scan", cli.WithJSON("emit the report as JSON"))
	fs := c.Flags()
	inject := fs.Bool("inject", false, "break the ALU propagation rule; the self-test must catch it")
	scenario := fs.String("scenario", "", "built-in scenario: "+strings.Join(core.ScanScenarios(), " | "))
	machine := fs.String("machine", "", "machine features for source scans: "+core.MachineFeatures())
	secretFlag := fs.String("secret", "", "extra secret region base:len[:name] for source scans")
	if err := c.Parse(args); err != nil {
		return 2
	}
	defer c.Close()

	if *inject {
		// Inverted expectation: the propagation checker validates itself
		// by catching the SiteTaintALU fault plan — the same injector
		// `pandora fault` uses — breaking the ALU propagation rule.
		if err := taint.SelfTestPlan(&faults.Plan{Site: faults.SiteTaintALU}); err != nil {
			fmt.Fprintf(os.Stderr, "pandora: scan: %v\n", err)
			fmt.Println("[INJECTED TAINT BUG NOT CAUGHT]")
			return 1
		}
		fmt.Println("[INJECTED TAINT BUG CAUGHT]")
		return 0
	}
	spec := serve.JobSpec{Kind: serve.KindScan}
	switch {
	case *scenario != "" && (*machine != "" || *secretFlag != ""):
		// A scenario fixes its own machine and secrets; a spec that
		// would be silently ignored is a usage error.
		fmt.Fprintln(os.Stderr, "pandora: scan: -machine and -secret apply to source scans, not -scenario")
		scanUsage()
		return 2
	case *scenario != "":
		spec.Scenario = *scenario
	case fs.NArg() == 1:
		src, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "pandora: %v\n", err)
			return 1
		}
		spec.Source = string(src)
		spec.Machine = *machine
		if *secretFlag != "" {
			if _, err := taint.ParseSecret(*secretFlag); err != nil {
				fmt.Fprintf(os.Stderr, "pandora: scan: %v\n", err)
				return 2
			}
			spec.Secrets = []string{*secretFlag}
		}
	default:
		scanUsage()
		return 2
	}

	canon, err := serve.Canonical(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pandora: scan: %v\n", err)
		return 2
	}
	runner, _ := serve.Runner(serve.KindScan)
	res, err := runner.Run(context.Background(), canon, serve.RunOpts{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pandora: scan: %v\n", err)
		return 1
	}

	if *c.JSON {
		var buf bytes.Buffer
		if err := json.Indent(&buf, res.Output, "", "  "); err != nil {
			fmt.Fprintf(os.Stderr, "pandora: scan: %v\n", err)
			return 1
		}
		buf.WriteByte('\n')
		os.Stdout.Write(buf.Bytes())
	} else {
		fmt.Print(res.Text)
	}
	if !res.Pass {
		return 1
	}
	return 0
}

// scanUsage prints the scan command's usage text to stderr.
func scanUsage() {
	fmt.Fprintln(os.Stderr, "usage: pandora scan [-machine spec] [-secret base:len[:name]] [-json] <file.s>")
	fmt.Fprintf(os.Stderr, "       pandora scan -scenario %s [-json]\n", strings.Join(core.ScanScenarios(), "|"))
	fmt.Fprintln(os.Stderr, "       pandora scan -inject")
}
