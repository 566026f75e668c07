package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"pandora/cmd/pandora/internal/cli"
	"pandora/internal/core"
)

// runTrace implements `pandora trace`: run a built-in scenario under
// the cycle-accurate probe and export the event trace as deterministic
// JSONL, Chrome trace-event JSON (load in Perfetto or chrome://tracing)
// or a text report with per-track activity and cycle attribution.
func runTrace(args []string) int {
	c := cli.New("trace",
		cli.WithSeed(1, "sweep scenario corpus seed"),
		cli.WithParallel(),
	)
	scenario := c.Flags().String("scenario", "aes", "built-in scenario: "+strings.Join(core.TraceScenarios(), " | "))
	format := c.Flags().String("format", "report", "export format: "+strings.Join(core.TraceFormats, " | "))
	window := c.Flags().String("window", "", "restrict export to cycles lo:hi (hi empty = unbounded)")
	outPath := c.Flags().String("o", "", "output path (default stdout)")
	if err := c.Parse(args); err != nil {
		return 2
	}
	defer c.Close()
	if err := core.CheckTraceFormat(*format); err != nil {
		return c.Errorf(2, "%v", err)
	}

	res, err := core.RunTrace(context.Background(), *scenario, *c.Seed, *c.Parallel, nil)
	if err != nil {
		return c.Errorf(1, "%v", err)
	}
	tr := res.Trace
	if *window != "" {
		lo, hi, err := parseWindow(*window)
		if err != nil {
			return c.Errorf(2, "%v", err)
		}
		tr = tr.Window(lo, hi)
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return c.Errorf(1, "%v", err)
		}
		defer f.Close()
		out = f
	}

	if err := res.Export(out, *format, tr); err != nil {
		return c.Errorf(1, "%v", err)
	}
	if *outPath != "" {
		fmt.Printf("wrote %s (%s, %d events)\n", *outPath, *format, tr.Len())
	}
	return 0
}

// parseWindow parses "lo:hi"; an empty hi means unbounded.
func parseWindow(s string) (lo, hi int64, err error) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad -window %q: want lo:hi", s)
	}
	if lo, err = strconv.ParseInt(parts[0], 0, 64); err != nil {
		return 0, 0, fmt.Errorf("bad -window lo %q: %v", parts[0], err)
	}
	hi = -1
	if parts[1] != "" {
		if hi, err = strconv.ParseInt(parts[1], 0, 64); err != nil {
			return 0, 0, fmt.Errorf("bad -window hi %q: %v", parts[1], err)
		}
	}
	return lo, hi, nil
}
