package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"

	"pandora/internal/core"
	"pandora/internal/diffcheck"
	"pandora/internal/faults"
	"pandora/internal/faults/campaign"
	"pandora/internal/kernels"
	"pandora/internal/obs"
	"pandora/internal/taint"
)

// RunOpts carries the execution-local knobs that are deliberately NOT
// part of a job's canonical spec: they change how a result is computed
// or observed, never what it is.
type RunOpts struct {
	// Workers bounds the analysis' internal fan-out (0 = GOMAXPROCS).
	// Results are bit-identical at every worker count.
	Workers int
	// Log receives narrative progress lines (nil = silent). The server
	// bridges it into the job's event stream.
	Log func(format string, args ...any)
	// Probe receives a copy of every obs event for analyses that run
	// under the probe (trace jobs). May be emitted to concurrently.
	Probe obs.Probe
	// Journal / Resume / DumpDir are the fault CLI's checkpoint options;
	// the server leaves them empty.
	Journal string
	Resume  bool
	DumpDir string
}

// JobRunner is one analysis behind the job API. Normalize maps a
// submitted spec to its canonical form (defaults filled, foreign fields
// zeroed, names validated) — the form the job key hashes — and Run
// executes it. Run must be deterministic in the canonical spec: the
// content-addressed cache serves any later submission of the same spec
// the stored bytes without re-executing.
type JobRunner interface {
	Kind() JobKind
	Normalize(spec JobSpec) (JobSpec, error)
	Run(ctx context.Context, spec JobSpec, opts RunOpts) (*JobResult, error)
}

// runners is the registry, one entry per JobKind.
var runners = map[JobKind]JobRunner{
	KindBench:    benchRunner{},
	KindCheck:    checkRunner{},
	KindScan:     scanRunner{},
	KindFault:    faultRunner{},
	KindTrace:    traceRunner{},
	KindContract: contractRunner{},
}

// Runner returns the registered runner for a kind.
func Runner(kind JobKind) (JobRunner, bool) {
	r, ok := runners[kind]
	return r, ok
}

// Kinds lists the job kinds in display order.
func Kinds() []JobKind {
	return []JobKind{KindBench, KindCheck, KindScan, KindFault, KindTrace, KindContract}
}

// benchRunner reproduces one registered core experiment. It returns the
// experiment's own (simulated, deterministic) report and metrics;
// wall-clock is measured by `bash bench/run.sh` (see bench/README.md).
type benchRunner struct{}

func (benchRunner) Kind() JobKind { return KindBench }

func (benchRunner) Normalize(spec JobSpec) (JobSpec, error) {
	if spec.Experiment == "" {
		return JobSpec{}, fmt.Errorf("serve: bench job needs an experiment (one of %v)", core.Names())
	}
	if _, ok := core.Get(spec.Experiment); !ok {
		return JobSpec{}, fmt.Errorf("serve: unknown experiment %q (want one of %v)", spec.Experiment, core.Names())
	}
	return JobSpec{
		Experiment: spec.Experiment,
		Samples:    spec.Samples,
		SecretLen:  spec.SecretLen,
		Full:       spec.Full,
	}, nil
}

func (benchRunner) Run(ctx context.Context, spec JobSpec, opts RunOpts) (*JobResult, error) {
	e, ok := core.Get(spec.Experiment)
	if !ok {
		return nil, fmt.Errorf("serve: unknown experiment %q", spec.Experiment)
	}
	res, err := e.Run(core.Options{
		Samples:   spec.Samples,
		SecretLen: spec.SecretLen,
		Full:      spec.Full,
		Parallel:  opts.Workers,
		Trace:     opts.Log,
		Ctx:       ctx,
	})
	if err != nil {
		return nil, err
	}
	out := &JobResult{Kind: KindBench, Pass: res.Pass, Text: res.Text, Metrics: res.Metrics}
	if !res.Pass {
		out.Note = "experiment did not reproduce"
	}
	return out, nil
}

// checkRunner is the differential-oracle sweep (`pandora check`).
type checkRunner struct{}

func (checkRunner) Kind() JobKind { return KindCheck }

func (checkRunner) Normalize(spec JobSpec) (JobSpec, error) {
	if spec.Programs < 0 || spec.Masks < 0 {
		return JobSpec{}, fmt.Errorf("serve: check job: negative programs/masks")
	}
	norm := JobSpec{Seed: spec.Seed, Programs: spec.Programs, Masks: spec.Masks}
	if norm.Seed == 0 {
		norm.Seed = 1
	}
	if norm.Programs == 0 {
		norm.Programs = 512
	}
	if norm.Masks == 0 {
		norm.Masks = 3
	}
	return norm, nil
}

func (checkRunner) Run(ctx context.Context, spec JobSpec, opts RunOpts) (*JobResult, error) {
	rep, err := diffcheck.Check(ctx, diffcheck.Options{
		Programs:        spec.Programs,
		Seed:            spec.Seed,
		MasksPerProgram: spec.Masks,
		Workers:         opts.Workers,
		Log:             opts.Log,
	})
	if err != nil {
		return nil, err
	}
	out := &JobResult{
		Kind: KindCheck,
		Pass: rep.Ok(),
		Text: rep.String(),
		Metrics: map[string]float64{
			"programs":    float64(rep.Programs),
			"runs":        float64(rep.Runs),
			"divergences": float64(len(rep.Failures)),
		},
	}
	if !rep.Ok() {
		out.Note = fmt.Sprintf("%d divergence(s)", len(rep.Failures))
	}
	return out, nil
}

// scanRunner is the taint-based leakage scanner (`pandora scan`): a
// built-in scenario, or user assembly whose `.secret` directives (plus
// Secrets entries) declare the labeled regions.
type scanRunner struct{}

func (scanRunner) Kind() JobKind { return KindScan }

func (scanRunner) Normalize(spec JobSpec) (JobSpec, error) {
	switch {
	case spec.Scenario != "" && spec.Source != "":
		return JobSpec{}, fmt.Errorf("serve: scan job: scenario and source are mutually exclusive")
	case spec.Scenario != "":
		if _, ok := core.ScenarioByName(spec.Scenario); !ok {
			return JobSpec{}, fmt.Errorf("serve: unknown scan scenario %q (want one of %v)", spec.Scenario, core.ScanScenarios())
		}
		return JobSpec{Scenario: spec.Scenario}, nil
	case spec.Source != "":
		// The canonical spelling — not the submitted one — goes into the
		// job key, so "vp:8,ss" and "silentstores, vp : 8" share a cache
		// entry.
		machine, err := core.CanonicalMachineSpec(spec.Machine)
		if err != nil {
			return JobSpec{}, fmt.Errorf("serve: scan job: %w", err)
		}
		for _, s := range spec.Secrets {
			if _, err := taint.ParseSecret(s); err != nil {
				return JobSpec{}, fmt.Errorf("serve: scan job: %w", err)
			}
		}
		return JobSpec{Source: spec.Source, Machine: machine, Secrets: spec.Secrets}, nil
	default:
		return JobSpec{}, fmt.Errorf("serve: scan job needs a scenario or source")
	}
}

func (scanRunner) Run(ctx context.Context, spec JobSpec, opts RunOpts) (*JobResult, error) {
	var (
		sum core.ScanSummary
		err error
	)
	if spec.Scenario != "" {
		if opts.Log != nil {
			opts.Log("scan: scenario %s", spec.Scenario)
		}
		sum, err = core.ScanScenario(ctx, spec.Scenario)
	} else {
		if opts.Log != nil {
			opts.Log("scan: %d bytes of source on machine %q", len(spec.Source), spec.Machine)
		}
		var extra []taint.Secret
		for _, s := range spec.Secrets {
			sec, perr := taint.ParseSecret(s)
			if perr != nil {
				return nil, perr
			}
			extra = append(extra, sec)
		}
		sum, err = core.ScanSource(ctx, spec.Source, spec.Machine, extra)
	}
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(sum)
	if err != nil {
		return nil, err
	}
	out := &JobResult{
		Kind:   KindScan,
		Pass:   sum.Total == 0,
		Text:   sum.Format(),
		Output: raw,
		Metrics: map[string]float64{
			"total_events":   float64(sum.Total),
			"dropped_events": float64(sum.Dropped),
		},
	}
	if sum.Total > 0 {
		out.Note = fmt.Sprintf("%d leak event(s)", sum.Total)
	}
	return out, nil
}

// faultRunner is the fault-injection campaign (`pandora fault`).
type faultRunner struct{}

func (faultRunner) Kind() JobKind { return KindFault }

func (faultRunner) Normalize(spec JobSpec) (JobSpec, error) {
	if spec.Trials < 0 {
		return JobSpec{}, fmt.Errorf("serve: fault job: negative trials")
	}
	for _, name := range spec.Sites {
		if _, err := faults.ParseSite(name); err != nil {
			return JobSpec{}, fmt.Errorf("serve: fault job: %w", err)
		}
	}
	norm := JobSpec{Seed: spec.Seed, Trials: spec.Trials, Sites: spec.Sites}
	if norm.Seed == 0 {
		norm.Seed = 1
	}
	if norm.Trials == 0 {
		norm.Trials = campaign.DefaultTrials
	}
	return norm, nil
}

func (faultRunner) Run(ctx context.Context, spec JobSpec, opts RunOpts) (*JobResult, error) {
	copts := campaign.Options{
		Seed:    spec.Seed,
		Trials:  spec.Trials,
		Workers: opts.Workers,
		Journal: opts.Journal,
		Resume:  opts.Resume,
		DumpDir: opts.DumpDir,
		Log:     opts.Log,
	}
	for _, name := range spec.Sites {
		s, err := faults.ParseSite(name)
		if err != nil {
			return nil, err
		}
		copts.Sites = append(copts.Sites, s)
	}
	rep, err := campaign.Run(ctx, copts)
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		return nil, err
	}
	out := &JobResult{
		Kind:   KindFault,
		Pass:   true,
		Text:   rep.Format(),
		Output: raw,
		Metrics: map[string]float64{
			"sites":           float64(len(rep.Sites)),
			"trials_per_site": float64(rep.TrialsPerSite),
			"false_positives": float64(rep.FalsePositives),
		},
	}
	if err := campaign.Verify(rep); err != nil {
		out.Pass = false
		out.Note = err.Error()
	}
	return out, nil
}

// traceRunner runs a scenario under the cycle-accurate probe and
// exports the trace (`pandora trace`).
type traceRunner struct{}

func (traceRunner) Kind() JobKind { return KindTrace }

func (traceRunner) Normalize(spec JobSpec) (JobSpec, error) {
	if spec.Scenario == "" {
		return JobSpec{}, fmt.Errorf("serve: trace job needs a scenario (one of %v)", core.TraceScenarios())
	}
	if !slices.Contains(core.TraceScenarios(), spec.Scenario) {
		return JobSpec{}, fmt.Errorf("serve: unknown trace scenario %q (want one of %v)", spec.Scenario, core.TraceScenarios())
	}
	norm := JobSpec{Scenario: spec.Scenario, Format: spec.Format}
	if norm.Format == "" {
		norm.Format = "report"
	}
	if err := core.CheckTraceFormat(norm.Format); err != nil {
		return JobSpec{}, fmt.Errorf("serve: trace job: %w", err)
	}
	// Only the sweep scenario consumes the seed; zeroing it elsewhere
	// keeps equivalent jobs on one cache key.
	if spec.Scenario == "sweep" {
		norm.Seed = spec.Seed
		if norm.Seed == 0 {
			norm.Seed = 1
		}
	}
	return norm, nil
}

// contractRunner is the crypto-kernel leakage-contract enumeration
// (`pandora contract`): selected kernels × toggle masks × cache
// variants under the taint scanner, verdicts against each kernel's
// designed constant-time contract.
type contractRunner struct{}

func (contractRunner) Kind() JobKind { return KindContract }

func (contractRunner) Normalize(spec JobSpec) (JobSpec, error) {
	names, err := kernels.ValidateNames(spec.Kernels)
	if err != nil {
		return JobSpec{}, fmt.Errorf("serve: contract job: %w", err)
	}
	variants, err := kernels.ValidateVariants(spec.Variants)
	if err != nil {
		return JobSpec{}, fmt.Errorf("serve: contract job: %w", err)
	}
	if spec.Masks < 0 || spec.Masks > diffcheck.AllMasks {
		return JobSpec{}, fmt.Errorf("serve: contract job: masks %d out of range [0, %d]", spec.Masks, diffcheck.AllMasks)
	}
	norm := JobSpec{Kernels: names, Variants: variants, Masks: spec.Masks}
	if norm.Masks == 0 {
		norm.Masks = diffcheck.AllMasks
	}
	return norm, nil
}

func (contractRunner) Run(ctx context.Context, spec JobSpec, opts RunOpts) (*JobResult, error) {
	if opts.Log != nil {
		opts.Log("contract: %d kernel(s) × %d mask(s) × %d cache variant(s)",
			len(spec.Kernels), spec.Masks, len(spec.Variants))
	}
	masks := make([]diffcheck.ToggleMask, spec.Masks)
	for i := range masks {
		masks[i] = diffcheck.ToggleMask(i)
	}
	rep, err := kernels.Enumerate(ctx, kernels.Options{
		Kernels:  spec.Kernels,
		Masks:    masks,
		Variants: spec.Variants,
		Workers:  opts.Workers,
	})
	if err != nil {
		return nil, err
	}
	raw, err := rep.Marshal()
	if err != nil {
		return nil, err
	}
	// Pass means every kernel honored its designed base contract: the
	// constant-time kernels scanned clean at mask 0 and the deliberate
	// violations were caught there. Optimization-induced leaks at other
	// masks are the finding, not a failure.
	out := &JobResult{Kind: KindContract, Pass: true, Text: rep.Format(), Output: raw}
	cells, leaking := 0, 0
	for _, k := range rep.Kernels {
		want := "leaks"
		if k.ConstantTime {
			want = "clean"
		}
		if k.BaselineVerdict != want {
			out.Pass = false
			out.Note = fmt.Sprintf("kernel %s: baseline verdict %s, designed %s", k.Kernel, k.BaselineVerdict, want)
		}
		for _, v := range k.Variants {
			cells += v.Clean + v.Leaking
			leaking += v.Leaking
		}
	}
	out.Metrics = map[string]float64{
		"kernels":       float64(len(rep.Kernels)),
		"cells":         float64(cells),
		"leaking_cells": float64(leaking),
	}
	return out, nil
}

func (traceRunner) Run(ctx context.Context, spec JobSpec, opts RunOpts) (*JobResult, error) {
	res, err := core.RunTrace(ctx, spec.Scenario, spec.Seed, opts.Workers, opts.Probe)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := res.Export(&buf, spec.Format, res.Trace); err != nil {
		return nil, err
	}
	return &JobResult{
		Kind:   KindTrace,
		Pass:   true,
		Text:   res.Header(),
		Export: buf.String(),
		Metrics: map[string]float64{
			"cycles":  float64(res.Cycles),
			"retired": float64(res.Retired),
			"events":  float64(res.Trace.Len()),
		},
	}, nil
}
