package core

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"

	"pandora/internal/asm"
	"pandora/internal/cache"
	"pandora/internal/mem"
	"pandora/internal/obs"
	"pandora/internal/parallel"
	"pandora/internal/pipeline"
)

// This file is the orchestration layer of `pandora trace`: it runs a
// scenario with the observability probe attached and returns the
// cycle-accurate event trace for export (JSONL, Chrome trace-event, or
// the text report). A registered scenario's trace is its scan run with
// a recording probe — the same machine, secrets and program, so the
// trace explains exactly the run that produced the scan verdict. Traces
// are deterministic: the same scenario, seed and machine configuration
// produce byte-identical exports at every worker count.

// TraceResult is one traced scenario run.
type TraceResult struct {
	Scenario string
	// Cycles is the scenario's total simulated cycle count — the cycle
	// stamp of the last run-end marker on the retire track. For
	// multi-run scenarios (aes runs the victim then the attacker on one
	// machine) this accumulates across runs, matching the absolute
	// cycle stamps in the trace.
	Cycles  int64
	Retired uint64
	Trace   *obs.Trace
}

// RunTrace runs one scenario under the probe: a registered scenario's
// single shadowed run, or the sweep corpus. ctx bounds the run; seed and
// workers only affect sweep — workers its execution schedule, never its
// output. extra, when non-nil, receives a copy of every probe event as
// the scenario runs — concurrently from worker goroutines for sweep, so
// extra must be safe for concurrent Emit there. The recorded trace is
// unaffected by extra.
func RunTrace(ctx context.Context, scenario string, seed int64, workers int, extra obs.Probe) (*TraceResult, error) {
	if scenario == sweepScenario {
		return traceSweep(ctx, seed, workers, extra)
	}
	s, ok := ScenarioByName(scenario)
	if !ok {
		return nil, fmt.Errorf("core: unknown trace scenario %q (want %s)",
			scenario, strings.Join(TraceScenarios(), ", "))
	}
	trace := obs.NewTrace()
	if _, err := s.Run(ctx, obs.Fanout(trace, extra)); err != nil {
		return nil, err
	}
	return &TraceResult{
		Scenario: scenario,
		Cycles:   trace.MaxCycle(obs.TrackRetire),
		Retired:  uint64(trace.CountKind(obs.KindRetire)),
		Trace:    trace,
	}, nil
}

// TraceFormats lists the trace export formats.
var TraceFormats = []string{"jsonl", "chrome", "report"}

// CheckTraceFormat reports whether format is one of TraceFormats.
func CheckTraceFormat(format string) error {
	if !slices.Contains(TraceFormats, format) {
		return fmt.Errorf("core: unknown trace format %q (want %s)", format, strings.Join(TraceFormats, ", "))
	}
	return nil
}

// Header is the one-line summary of a traced run.
func (r *TraceResult) Header() string {
	return fmt.Sprintf("scenario %s: %d cycles, %d retired, %d events",
		r.Scenario, r.Cycles, r.Retired, r.Trace.Len())
}

// Export writes events — r.Trace, or a cycle window of it — to w in one
// of TraceFormats. The report format opens with r's Header, which counts
// the whole trace even when events is a window.
func (r *TraceResult) Export(w io.Writer, format string, events *obs.Trace) error {
	if err := CheckTraceFormat(format); err != nil {
		return err
	}
	switch format {
	case "jsonl":
		return events.WriteJSONL(w)
	case "chrome":
		return events.WriteChrome(w)
	}
	if _, err := fmt.Fprintln(w, r.Header()); err != nil {
		return err
	}
	return events.WriteReport(w)
}

// sweepPrograms is the sweep scenario's corpus size.
const sweepPrograms = 12

// traceSweep traces a corpus of seeded straight-line programs, each on
// a fresh machine, and concatenates the per-program traces in corpus
// order with their cycle stamps shifted to follow one another. The
// parallel engine only changes which worker runs which program — the
// merged trace is byte-identical at every worker count.
func traceSweep(ctx context.Context, seed int64, workers int, extra obs.Probe) (*TraceResult, error) {
	type part struct {
		trace  *obs.Trace
		cycles int64
		ret    uint64
	}
	idx := make([]int, sweepPrograms)
	for i := range idx {
		idx[i] = i
	}
	parts, err := parallel.Map(ctx, workers, idx,
		func(ctx context.Context, _ int, i int) (part, error) {
			prog, err := asm.Assemble(sweepProgram(seed, i))
			if err != nil {
				return part{}, fmt.Errorf("sweep program %d: %w", i, err)
			}
			tr := obs.NewTrace()
			cfg := pipeline.DefaultConfig()
			cfg.Probe = obs.Fanout(tr, extra)
			flag, stop := pipeline.CancelFromContext(ctx)
			defer stop()
			cfg.Cancel = flag
			m, err := pipeline.New(cfg, mem.New(), cache.MustNewHierarchy(cache.DefaultHierConfig()))
			if err != nil {
				return part{}, err
			}
			res, err := m.Run(prog)
			if err != nil {
				return part{}, fmt.Errorf("sweep program %d: %w", i, err)
			}
			return part{trace: tr, cycles: res.Cycles, ret: res.Retired}, nil
		})
	if err != nil {
		return nil, err
	}

	var offset int64
	var retired uint64
	traces := make([]*obs.Trace, 0, len(parts))
	for _, p := range parts {
		p.trace.ShiftCycles(offset)
		traces = append(traces, p.trace)
		offset += p.cycles + 1
		retired += p.ret
	}
	merged := obs.Merge(traces...)
	return &TraceResult{
		Scenario: sweepScenario,
		Cycles:   merged.MaxCycle(obs.TrackRetire),
		Retired:  retired,
		Trace:    merged,
	}, nil
}

// sweepProgram generates the i-th seeded straight-line program: a block
// of register initialization, a mix of ALU work and store/load pairs
// over a private scratch region, and a halt. Generation is a pure
// function of (seed, i).
func sweepProgram(seed int64, i int) string {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
	var b strings.Builder
	b.WriteString("addi x1, x0, 0x400\n")
	for r := 2; r <= 8; r++ {
		fmt.Fprintf(&b, "addi x%d, x0, %d\n", r, rng.Intn(2048)-1024)
	}
	ops := []string{"add", "sub", "and", "or", "xor", "mul"}
	for n := 0; n < 24+rng.Intn(16); n++ {
		switch rng.Intn(8) {
		case 0: // store then load back: exercises forwarding and the SQ
			off := 8 * rng.Intn(16)
			src := 2 + rng.Intn(7)
			dst := 2 + rng.Intn(7)
			fmt.Fprintf(&b, "sd x%d, %d(x1)\nld x%d, %d(x1)\n", src, off, dst, off)
		case 1: // cold load: exercises the cache hierarchy
			fmt.Fprintf(&b, "ld x%d, %d(x1)\n", 2+rng.Intn(7), 8*rng.Intn(32))
		default:
			op := ops[rng.Intn(len(ops))]
			fmt.Fprintf(&b, "%s x%d, x%d, x%d\n",
				op, 2+rng.Intn(7), 2+rng.Intn(7), 2+rng.Intn(7))
		}
	}
	b.WriteString("halt\n")
	return b.String()
}
