package main

import (
	"context"
	"fmt"
	"os"
	"strings"

	"pandora/cmd/pandora/internal/cli"
	"pandora/internal/diffcheck"
	"pandora/internal/kernels"
	"pandora/internal/serve"
)

// runContract implements `pandora contract`: the leakage-contract
// enumeration over the crypto-kernel library — every selected kernel ×
// optimization toggle mask × cache variant scanned under the taint
// engine with the cache-address observer armed, each cell classified
// clean or leaking. The output is the machine-generated extension of
// the paper's Table I over real kernels; `-json` emits the committed
// golden form (see EXPERIMENTS.md).
//
// Like scan and trace, the command executes through the serve.JobRunner
// for KindContract, so the CLI and the job API share one canonical spec
// and one result encoding.
func runContract(args []string) int {
	c := cli.New("contract",
		cli.WithParallel(),
		cli.WithJSON("emit the report as JSON (the committed golden form)"),
	)
	fs := c.Flags()
	kernelsFlag := fs.String("kernels", "", "comma-separated kernel subset: "+strings.Join(kernels.Names(), " | ")+" (empty = all)")
	variantsFlag := fs.String("variants", "", "comma-separated cache-variant subset (empty = all)")
	masks := fs.Int("masks", 0, fmt.Sprintf("enumerate the first N toggle masks (0 = the full %d-mask space)", diffcheck.AllMasks))
	out := fs.String("o", "", "write the report to this file instead of stdout")
	if err := c.Parse(args); err != nil {
		return 2
	}
	defer c.Close()

	split := func(s string) []string {
		if s == "" {
			return nil
		}
		parts := strings.Split(s, ",")
		for i := range parts {
			parts[i] = strings.TrimSpace(parts[i])
		}
		return parts
	}
	spec := serve.JobSpec{
		Kind:     serve.KindContract,
		Kernels:  split(*kernelsFlag),
		Variants: split(*variantsFlag),
		Masks:    *masks,
	}
	canon, err := serve.Canonical(spec)
	if err != nil {
		return c.Errorf(2, "contract: %v", err)
	}
	runner, _ := serve.Runner(serve.KindContract)
	res, err := runner.Run(context.Background(), canon, serve.RunOpts{Workers: *c.Parallel, Log: c.LogFunc()})
	if err != nil {
		return c.Errorf(1, "contract: %v", err)
	}

	body := []byte(res.Text)
	if *c.JSON {
		body = res.Output
	}
	if *out != "" {
		if err := os.WriteFile(*out, body, 0o644); err != nil {
			return c.Errorf(1, "contract: %v", err)
		}
	} else {
		os.Stdout.Write(body)
	}
	if !res.Pass {
		fmt.Fprintf(os.Stderr, "pandora: contract: %s\n", res.Note)
		return 1
	}
	return 0
}
