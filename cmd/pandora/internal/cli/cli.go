// Package cli is the shared runner for pandora subcommands. Every
// subcommand (check, scan, fault, trace, serve, contract) declares which
// of the common flags it takes — -seed, -parallel, -json, -quick, -v —
// through options, so the flag names, defaults and help strings stay
// identical across the tool. The profiling flags -cpuprofile, -memprofile and
// -runtime-metrics are registered on every command unconditionally.
package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
)

// Command is one subcommand's flag set plus the shared lifecycle:
// Parse starts profiling, Close flushes it. Pointers for flags a
// command did not opt into are nil.
type Command struct {
	name string
	fs   *flag.FlagSet

	Seed     *int64
	Parallel *int
	JSON     *bool
	Quick    *bool
	Verbose  *bool

	cpuProfile     *string
	memProfile     *string
	runtimeMetrics *bool
	cpuFile        *os.File
}

// Option opts a Command into one of the shared flags.
type Option func(*Command)

// WithSeed registers -seed with the given default.
func WithSeed(def int64, usage string) Option {
	return func(c *Command) { c.Seed = c.fs.Int64("seed", def, usage) }
}

// WithParallel registers -parallel (0 = GOMAXPROCS).
func WithParallel() Option {
	return func(c *Command) {
		c.Parallel = c.fs.Int("parallel", 0, "worker count (0 = GOMAXPROCS)")
	}
}

// WithJSON registers -json.
func WithJSON(usage string) Option {
	return func(c *Command) { c.JSON = c.fs.Bool("json", false, usage) }
}

// WithQuick registers -quick.
func WithQuick(usage string) Option {
	return func(c *Command) { c.Quick = c.fs.Bool("quick", false, usage) }
}

// WithVerbose registers -v.
func WithVerbose() Option {
	return func(c *Command) { c.Verbose = c.fs.Bool("v", false, "narrative progress tracing") }
}

// New builds a Command named after the subcommand. The profiling flags
// are always present.
func New(name string, opts ...Option) *Command {
	c := &Command{name: name, fs: flag.NewFlagSet("pandora "+name, flag.ExitOnError)}
	c.cpuProfile = c.fs.String("cpuprofile", "", "write a CPU profile to this file")
	c.memProfile = c.fs.String("memprofile", "", "write a heap profile to this file on exit")
	c.runtimeMetrics = c.fs.Bool("runtime-metrics", false, "print Go runtime metrics to stderr on exit")
	for _, o := range opts {
		o(c)
	}
	return c
}

// Flags exposes the underlying set for command-specific flags.
func (c *Command) Flags() *flag.FlagSet { return c.fs }

// Parse parses args and starts the CPU profile if requested.
func (c *Command) Parse(args []string) error {
	if err := c.fs.Parse(args); err != nil {
		return err
	}
	if *c.cpuProfile != "" {
		f, err := os.Create(*c.cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		c.cpuFile = f
	}
	return nil
}

// Close stops the CPU profile, writes the heap profile and prints
// runtime metrics, in that order. Safe to call exactly once, typically
// via defer right after Parse succeeds.
func (c *Command) Close() {
	if c.cpuFile != nil {
		pprof.StopCPUProfile()
		c.cpuFile.Close()
		c.cpuFile = nil
	}
	if *c.memProfile != "" {
		if f, err := os.Create(*c.memProfile); err == nil {
			runtime.GC()
			pprof.WriteHeapProfile(f)
			f.Close()
		} else {
			fmt.Fprintf(os.Stderr, "pandora: %s: memprofile: %v\n", c.name, err)
		}
	}
	if *c.runtimeMetrics {
		c.printRuntimeMetrics()
	}
}

// printRuntimeMetrics samples a stable subset of runtime/metrics.
func (c *Command) printRuntimeMetrics() {
	samples := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/total:bytes"},
		{Name: "/sched/goroutines:goroutines"},
	}
	metrics.Read(samples)
	fmt.Fprintf(os.Stderr, "runtime metrics (%s):\n", c.name)
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			fmt.Fprintf(os.Stderr, "  %-40s %d\n", s.Name, s.Value.Uint64())
		case metrics.KindFloat64:
			fmt.Fprintf(os.Stderr, "  %-40s %g\n", s.Name, s.Value.Float64())
		}
	}
}

// Errorf prints "pandora: <name>: ..." to stderr and returns the exit
// code, so call sites can `return c.Errorf(1, ...)`.
func (c *Command) Errorf(code int, format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "pandora: %s: %v\n", c.name, fmt.Sprintf(format, args...))
	return code
}

// Log prints a progress line to stderr when -v was given (no-op when
// the command did not opt into WithVerbose or the flag is off).
func (c *Command) Log(format string, args ...any) {
	if c.Verbose != nil && *c.Verbose {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
}

// LogFunc returns Log as a trace callback, or nil when -v is off, for
// APIs that treat a nil trace function as disabled.
func (c *Command) LogFunc() func(format string, args ...any) {
	if c.Verbose == nil || !*c.Verbose {
		return nil
	}
	return c.Log
}
