// Command pandora regenerates the tables and figures of "Opening
// Pandora's Box" (ISCA 2021) on the simulator stack in this repository.
//
// Usage:
//
//	pandora list                 # enumerate experiments
//	pandora <experiment> [flags] # run one (e.g. pandora table1)
//	pandora all [flags]          # run every experiment
//
// Flags:
//
//	-samples N    distribution sample count (fig6)
//	-secretlen N  bytes to leak in the URG experiments
//	-full         full-scale sweeps (keyrec: 65536 values per slot)
//	-parallel N   worker count (0 = GOMAXPROCS); results are identical
//	              at every worker count
//	-v            narrative progress tracing
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"pandora/internal/asm"
	"pandora/internal/cache"
	"pandora/internal/core"
	"pandora/internal/isa"
	"pandora/internal/mem"
	"pandora/internal/obs"
	"pandora/internal/parallel"
	"pandora/internal/pipeline"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	if cmd == "run" {
		os.Exit(runAssembly(os.Args[2:]))
	}
	if cmd == "check" {
		os.Exit(runCheck(os.Args[2:]))
	}
	if cmd == "scan" {
		os.Exit(runScan(os.Args[2:]))
	}
	if cmd == "fault" {
		os.Exit(runFault(os.Args[2:]))
	}
	if cmd == "trace" {
		os.Exit(runTrace(os.Args[2:]))
	}
	if cmd == "serve" {
		os.Exit(runServe(os.Args[2:]))
	}
	if cmd == "contract" {
		os.Exit(runContract(os.Args[2:]))
	}

	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	samples := fs.Int("samples", 0, "distribution sample count")
	secretLen := fs.Int("secretlen", 0, "bytes to leak in URG experiments")
	full := fs.Bool("full", false, "full-scale sweeps")
	workers := fs.Int("parallel", 0, "worker count (0 = GOMAXPROCS)")
	verbose := fs.Bool("v", false, "narrative progress tracing")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	opts := core.Options{Samples: *samples, SecretLen: *secretLen, Full: *full, Parallel: *workers}
	if *verbose {
		opts.Trace = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	switch cmd {
	case "list", "help", "-h", "--help":
		usage()
	case "all":
		if failed := runAll(opts); failed > 0 {
			fmt.Fprintf(os.Stderr, "\n%d experiment(s) did not reproduce\n", failed)
			os.Exit(1)
		}
	default:
		e, ok := core.Get(cmd)
		if !ok {
			fmt.Fprintf(os.Stderr, "pandora: unknown experiment %q\n\n", cmd)
			usage()
			os.Exit(2)
		}
		if !runOne(e, opts) {
			os.Exit(1)
		}
	}
}

func runOne(e *core.Experiment, opts core.Options) bool {
	fmt.Printf("== %s (%s) ==\n\n", e.Name, e.Artifact)
	res, err := e.Run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pandora: %s: %v\n", e.Name, err)
		return false
	}
	fmt.Println(res.Text)
	status := "REPRODUCED"
	if !res.Pass {
		status = "NOT REPRODUCED"
	}
	fmt.Printf("[%s]\n\n", status)
	return res.Pass
}

// runAll executes every registered experiment. With more than one worker
// the experiments themselves are the parallel units: each runs serially
// inside (Parallel=1, avoiding worker oversubscription), output is
// buffered per experiment, and the buffers print in registration order —
// byte-identical to a serial `pandora all`. Returns the failure count.
func runAll(opts core.Options) int {
	type allResult struct {
		text string
		pass bool
	}
	exps := core.Experiments()
	inner := opts
	if parallel.Workers(opts.Parallel) > 1 {
		inner.Parallel = 1
		inner.Trace = nil // interleaved traces from concurrent experiments are useless
	}
	results, err := parallel.Map(context.Background(), opts.Parallel, exps,
		func(_ context.Context, _ int, e *core.Experiment) (allResult, error) {
			res, err := e.Run(inner)
			if err != nil {
				return allResult{
					text: fmt.Sprintf("== %s (%s) ==\n\npandora: %s: %v\n", e.Name, e.Artifact, e.Name, err),
				}, nil
			}
			status := "REPRODUCED"
			if !res.Pass {
				status = "NOT REPRODUCED"
			}
			return allResult{
				text: fmt.Sprintf("== %s (%s) ==\n\n%s\n[%s]\n\n", e.Name, e.Artifact, res.Text, status),
				pass: res.Pass,
			}, nil
		})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pandora: %v\n", err)
		return len(exps)
	}
	failed := 0
	for _, r := range results {
		fmt.Print(r.text)
		if !r.pass {
			failed++
		}
	}
	return failed
}

// runAssembly implements `pandora run <file.s>`: execute an assembly file
// on a configurable simulated machine and report timing.
func runAssembly(args []string) int {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	machine := fs.String("machine", "", "comma-separated machine features: "+core.MachineFeatures())
	events := fs.Bool("events", false, "print the run's obs events as JSONL")
	pipeview := fs.Bool("pipeview", false, "draw a per-µop pipeline diagram")
	regs := fs.Bool("regs", false, "dump non-zero architectural registers")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pandora run [-machine spec] [-events] [-pipeview] [-regs] <file.s>")
		return 2
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "pandora: %v\n", err)
		return 1
	}
	prog, err := asm.Assemble(string(src))
	if err != nil {
		fmt.Fprintf(os.Stderr, "pandora: %v\n", err)
		return 1
	}
	cfg, err := core.ParseMachineSpec(*machine)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pandora: %v\n", err)
		return 1
	}
	tr := obs.NewTrace()
	if *events || *pipeview {
		cfg.Probe = tr
	}
	m, err := pipeline.New(cfg, mem.New(), cache.MustNewHierarchy(cache.DefaultHierConfig()))
	if err != nil {
		fmt.Fprintf(os.Stderr, "pandora: %v\n", err)
		return 1
	}
	res, err := m.Run(prog)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pandora: %v\n", err)
		return 1
	}
	fmt.Printf("cycles:  %d\nretired: %d\nIPC:     %.3f\n", res.Cycles, res.Retired,
		float64(res.Retired)/float64(res.Cycles))
	fmt.Printf("stats:   %+v\n", m.Stats())
	if *regs {
		for r := isa.Reg(1); r < isa.NumRegs; r++ {
			if v := m.Reg(r); v != 0 {
				fmt.Printf("  %v = %d (%#x)\n", r, v, v)
			}
		}
	}
	if *events {
		err = tr.WriteJSONL(os.Stdout)
	}
	if *pipeview && err == nil {
		err = tr.WritePipeview(os.Stdout, 96, func(pc int64) string { return prog[pc].String() })
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pandora: %v\n", err)
		return 1
	}
	return 0
}

func usage() {
	fmt.Println("pandora — reproduction harness for \"Opening Pandora's Box\" (ISCA 2021)")
	fmt.Println("\nexperiments:")
	for _, e := range core.Experiments() {
		fmt.Printf("  %-16s %-24s %s\n", e.Name, e.Artifact, e.Title)
	}
	fmt.Println("\nscenarios (registry; crypto kernels self-register alongside the built-ins):")
	fmt.Printf("  scan, trace: %s\n", strings.Join(core.ScanScenarios(), " | "))
	fmt.Println("  trace only:  sweep (seeded multi-machine corpus, no secret)")
	fmt.Println("\nusage: pandora <experiment>|all|list [-samples N] [-secretlen N] [-full] [-parallel N] [-v]")
	fmt.Println("       pandora run [-machine spec] [-events] [-pipeview] [-regs] <file.s>  (-events: obs JSONL)")
	fmt.Println("       pandora check [-n N] [-seed S] [-masks K] [-inject] [-parallel N] [-v]")
	fmt.Println("       pandora scan [-machine spec] [-secret base:len[:name]] [-json] <file.s>")
	fmt.Println("       pandora scan -scenario <scenario> [-json] | -inject")
	fmt.Println("       pandora fault [-seed S] [-trials N] [-sites a,b] [-journal path [-resume]]")
	fmt.Println("                     [-dump-dir dir] [-json] [-parallel N] [-v]")
	fmt.Println("       pandora trace [-scenario <scenario>|sweep] [-format jsonl|chrome|report]")
	fmt.Println("                     [-window lo:hi] [-o path] [-seed S] [-parallel N]")
	fmt.Println("       pandora serve [-addr host:port] [-cache dir] [-shards N] [-queue N] [-parallel N]")
	fmt.Println("       pandora contract [-kernels a,b] [-variants a,b] [-masks N] [-json] [-o path] [-parallel N]")
}
