package main

import (
	"bufio"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"pandora/internal/asm"
	"pandora/internal/cache"
	"pandora/internal/core"
	"pandora/internal/diffcheck"
	"pandora/internal/dmp"
	"pandora/internal/emu"
	"pandora/internal/faults/campaign"
	"pandora/internal/isa"
	"pandora/internal/kernels"
	"pandora/internal/mem"
	"pandora/internal/obs"
	"pandora/internal/pipeline"
	"pandora/internal/serve"
	"pandora/internal/taint"
)

// span is one timed call into a layer.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent,omitempty"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so an untraced call pays one nil check.
type tracer struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	spans    []span
}

// begin opens a span under parent (0 = none) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	start := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Workload: t.workload, StartNS: start})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sweep is the traced run. It measures every layer through that layer's
// public functions on small seeded inputs, with a span around each call,
// and reports the per-layer metrics. The numbers do not depend on the
// workload named; the spans carry its name.
func sweep(e *env, workload string, refMS float64) (*result, error) {
	tr := &tracer{workload: workload, t0: time.Now()}
	res := &result{}
	root := tr.begin("sweep", 0)
	for _, s := range []struct {
		name string
		fn   func(*env, *tracer, int, *result) error
	}{
		{"pipeline", sweepPipeline},
		{"kernels", sweepCells},
		{"emu+cache", sweepEmuCache},
		{"asm", sweepAsm},
		{"suite", sweepSuite},
		{"serve", sweepServe},
		{"host", sweepHost},
	} {
		id := tr.begin(s.name, root)
		err := s.fn(e, tr, id, res)
		tr.end(id)
		if err != nil {
			err = fmt.Errorf("%s: %w", s.name, err)
		}
		res.op(err)
	}
	res.add("host.ref_ms", "ms", refMS)
	tr.end(root)
	path := filepath.Join(e.root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, e.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	res.note("%d spans written to %s", len(tr.spans), path)
	return res, nil
}

// runProgs runs every program once, each on a fresh machine from mk
// (see cycleBlock for why machines are not reused), with a span around
// each Run when tr is non-nil, calling after (when non-nil) after each
// Run.
func runProgs(mk func() (pipeline.Config, error), hc cache.HierConfig, progs []isa.Program, tr *tracer, parent int, after func() error) (int64, error) {
	var cycles int64
	for _, p := range progs {
		cfg, err := mk()
		if err != nil {
			return 0, err
		}
		m, err := newMachine(cfg, hc)
		if err != nil {
			return 0, err
		}
		id := tr.begin("pipeline.Machine.Run", parent)
		r, err := m.Run(p)
		tr.end(id)
		if err != nil {
			return 0, err
		}
		cycles += r.Cycles
		if after != nil {
			if err := after(); err != nil {
				return 0, err
			}
		}
	}
	return cycles, nil
}

// nsPerCycle times passes over progs for at least d and returns host
// nanoseconds per simulated cycle.
func nsPerCycle(mk func() (pipeline.Config, error), hc cache.HierConfig, progs []isa.Program, d time.Duration, tr *tracer, parent int, after func() error) (float64, error) {
	var cycles int64
	t0 := time.Now()
	for cycles == 0 || time.Since(t0) < d {
		c, err := runProgs(mk, hc, progs, tr, parent, after)
		if err != nil {
			return 0, err
		}
		cycles += c
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(cycles), nil
}

// layerNS warms up with one pass, then returns nsPerCycle.
func layerNS(e *env, mk func() (pipeline.Config, error), hc cache.HierConfig, progs []isa.Program, after func() error) (float64, error) {
	if _, err := runProgs(mk, hc, progs, nil, 0, after); err != nil {
		return 0, err
	}
	return nsPerCycle(mk, hc, progs, e.size.layerTime, nil, 0, after)
}

// sweepPipeline measures the cycle loop bare and with each layer that
// hooks into it switched on, on the cycles program set.
func sweepPipeline(e *env, tr *tracer, parent int, res *result) error {
	progs := cyclePrograms(e.seed, e.size.programs)
	def := cache.DefaultHierConfig()
	config := func(mask diffcheck.ToggleMask, checks bool) func() (pipeline.Config, error) {
		return func() (pipeline.Config, error) {
			c := diffcheck.PipeConfig(mask)
			c.CheckInvariants = checks
			return c, nil
		}
	}
	bare := config(0, false)

	first, err := runProgs(bare, def, progs, nil, 0, nil)
	if err != nil {
		return err
	}
	res.add("pipeline.sim_cycles", "count", float64(first))
	ns, err := nsPerCycle(bare, def, progs, e.size.layerTime, nil, 0, nil)
	if err != nil {
		return err
	}
	res.add("pipeline.ns_per_cycle", "ns", ns)

	// Steady-state Runs must not allocate: every program re-runs on its
	// own warmed machine. Mask none has no trained predictor state, so a
	// re-run is safe.
	ms := make([]*pipeline.Machine, len(progs))
	for i := range ms {
		cfg, _ := bare()
		if ms[i], err = newMachine(cfg, def); err != nil {
			return err
		}
	}
	var before, after runtime.MemStats
	const passes = 4
	for pass := -1; pass < passes; pass++ {
		if pass == 0 {
			runtime.ReadMemStats(&before)
		}
		for i, p := range progs {
			if _, err := ms[i].Run(p); err != nil {
				return err
			}
		}
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(passes*len(progs))
	res.add("pipeline.allocs_per_run", "count", allocs)
	if allocs >= 1 {
		return fmt.Errorf("steady-state Machine.Run allocates %.2f times per run, want 0", allocs)
	}

	// Tracing overhead: the same passes without and with a span around
	// every Run, in adjacent pairs so host drift hits both sides alike;
	// the metric is the median pair's slowdown.
	var ratios []float64
	for i := 0; i < 8; i++ {
		a, err := nsPerCycle(bare, def, progs, e.size.layerTime/4, nil, 0, nil)
		if err != nil {
			return err
		}
		b, err := nsPerCycle(bare, def, progs, e.size.layerTime/4, tr, parent, nil)
		if err != nil {
			return err
		}
		ratios = append(ratios, b/a-1)
	}
	res.add("bench.trace_overhead_frac", "ratio", median(ratios))

	if ns, err = layerNS(e, config(diffcheck.TogSpec|diffcheck.TogStLF, false), def, progs, nil); err != nil {
		return err
	}
	res.add("pipeline.spec.ns_per_cycle", "ns", ns)

	checkedHier := def
	checkedHier.SelfCheck = true
	if ns, err = layerNS(e, config(0, true), checkedHier, progs, nil); err != nil {
		return err
	}
	res.add("pipeline.invariants.ns_per_cycle", "ns", ns)

	tainted := func() (pipeline.Config, error) {
		c, _ := bare()
		st := taint.NewState()
		st.ObserveAddrs = true
		bases, span := diffcheck.ScratchRegions()
		for i, b := range bases {
			if _, err := st.DefineSecret(taint.Secret{Name: fmt.Sprintf("region%d", i), Base: b, Len: span}); err != nil {
				return c, err
			}
		}
		c.Taint = st
		return c, nil
	}
	if ns, err = layerNS(e, tainted, def, progs, nil); err != nil {
		return err
	}
	res.add("taint.ns_per_cycle", "ns", ns)

	// The probe records every event; the spin kernel alone would emit
	// millions per Run, so the probe is timed on the generated programs.
	trace := obs.NewTrace()
	probed := func() (pipeline.Config, error) {
		c, _ := bare()
		c.Probe = trace
		return c, nil
	}
	drain := func() error {
		err := trace.WriteJSONL(io.Discard)
		trace.Events = trace.Events[:0]
		return err
	}
	if ns, err = layerNS(e, probed, def, progs[:len(progs)-1], drain); err != nil {
		return err
	}
	res.add("obs.ns_per_cycle", "ns", ns)
	return nil
}

// sweepCells measures contract cells on the seeded cell sample, once
// through one parallel kernels.Enumerate and once serially through
// kernels.Run. Both must agree with CONTRACT_table.json cell for cell.
func sweepCells(e *env, tr *tracer, parent int, res *result) error {
	ctx := context.Background()
	golden, err := os.ReadFile(filepath.Join(e.root, "CONTRACT_table.json"))
	if err != nil {
		return err
	}
	leaks, err := goldenLeaks(golden)
	if err != nil {
		return err
	}
	names, err := kernels.ValidateNames(e.size.kernels)
	if err != nil {
		return err
	}
	variants, err := selectVariants(e.size.variants)
	if err != nil {
		return err
	}
	cells, masks := cellSample(e, names, variants)

	id := tr.begin("kernels.Enumerate", parent)
	t0 := time.Now()
	rep, err := kernels.Enumerate(ctx, kernels.Options{Kernels: names, Masks: masks, Variants: variantNames(variants), Workers: workers})
	wall := time.Since(t0)
	tr.end(id)
	if err != nil {
		return err
	}
	for _, kr := range rep.Kernels {
		for _, vr := range kr.Variants {
			bits, err := hex.DecodeString(vr.LeakMask)
			if err != nil {
				return err
			}
			for i, m := range masks {
				if got, want := bits[i/8]>>(i%8)&1 == 1, leaks[kr.Kernel+"/"+vr.Variant](m); got != want {
					return fmt.Errorf("Enumerate %s/%s mask %v: leaks=%v, golden %v", kr.Kernel, vr.Variant, m, got, want)
				}
			}
		}
	}

	lats, leaking, err := scanCells(ctx, cells, leaks, tr, parent)
	if err != nil {
		return err
	}
	var serial time.Duration
	for _, d := range lats {
		serial += d
	}
	ms := millis(lats)
	res.add("kernels.cell_us.p50", "us", quantile(ms, 0.5)*1e3)
	res.add("kernels.cell_us.p99", "us", quantile(ms, 0.99)*1e3)
	res.add("parallel.efficiency", "ratio", serial.Seconds()/(wall.Seconds()*workers))
	res.add("contract.leaking_cells", "count", float64(leaking))
	res.note("contract cell sample: %d kernels × %d variants × %d masks = %d cells", len(names), len(variants), len(masks), len(cells))

	// Layer ablations on every ablateEvery-th cell: the full cell, then
	// without the taint shadow, then without the invariant checks.
	var full, noTaint, noChecks, setup time.Duration
	var cycles int64
	n := 0
	for i := 0; i < len(cells); i += e.size.ablateEvery {
		c := cells[i]
		id := tr.begin("cell.ablation", parent)
		cy, su, tf, err := runCell(c, true, true)
		if err != nil {
			return err
		}
		_, _, tn, err := runCell(c, false, true)
		if err != nil {
			return err
		}
		_, _, tc, err := runCell(c, true, false)
		if err != nil {
			return err
		}
		tr.end(id)
		full, noTaint, noChecks, setup = full+tf, noTaint+tn, noChecks+tc, setup+su
		cycles += cy
		n++
	}
	res.add("kernels.sim_cycles_per_cell", "count", float64(cycles)/float64(n))
	res.add("pipeline.setup_us", "us", float64(setup.Nanoseconds())/1e3/float64(n))
	res.add("taint.share", "ratio", float64(full-noTaint)/float64(full))
	res.add("pipeline.invariants.share", "ratio", float64(full-noChecks)/float64(full))
	return nil
}

// runCell runs one contract cell the way kernels.Run does, with the taint
// shadow and the invariant checks switchable. It returns the simulated
// cycles, the set-up time (cache.NewHierarchy, pipeline.New and the
// kernel's Setup) and the whole cell's time.
func runCell(c sampleCell, withTaint, withChecks bool) (int64, time.Duration, time.Duration, error) {
	t0 := time.Now()
	unit, err := asm.AssembleUnit(c.k.Source)
	if err != nil {
		return 0, 0, 0, err
	}
	t1 := time.Now()
	cfg := diffcheck.PipeConfig(c.mask)
	cfg.CheckInvariants = withChecks
	hc := c.v.Config
	hc.SelfCheck = withChecks
	var st *taint.State
	if withTaint {
		st = taint.NewState()
		st.ObserveAddrs = true
		cfg.Taint = st
		for _, s := range unit.Secrets {
			if _, err := st.DefineSecret(taint.Secret{Name: s.Name, Base: s.Base, Len: s.Len}); err != nil {
				return 0, 0, 0, err
			}
		}
	}
	m := mem.New()
	if c.k.Setup != nil {
		c.k.Setup(m)
	}
	hier, err := cache.NewHierarchy(hc)
	if err != nil {
		return 0, 0, 0, err
	}
	if c.v.Stride {
		hier.AddListener(dmp.NewStride(hier))
	}
	pm, err := pipeline.New(cfg, m, hier)
	if err != nil {
		return 0, 0, 0, err
	}
	t2 := time.Now()
	r, err := pm.Run(unit.Prog)
	if err == nil && c.k.Check != nil {
		err = c.k.Check(m)
	}
	return r.Cycles, t2.Sub(t1), time.Since(t0), err
}

// sweepEmuCache times the functional emulator on the cycles program set,
// then replays the address stream it produced through a cache hierarchy.
func sweepEmuCache(e *env, tr *tracer, parent int, res *result) error {
	progs := cyclePrograms(e.seed, e.size.programs)
	type access struct {
		addr  uint64
		write bool
	}
	var stream []access
	machines := make([]*emu.Machine, len(progs))
	for i, p := range progs {
		m := mem.New()
		diffcheck.InitMemory(m)
		mc := emu.New(m)
		mc.Trace = func(_ int64, in isa.Inst) {
			switch isa.ClassOf(in.Op) {
			case isa.ClassLoad:
				stream = append(stream, access{in.EffectiveAddr(mc.Regs[in.Rs1]), false})
			case isa.ClassStore:
				stream = append(stream, access{in.EffectiveAddr(mc.Regs[in.Rs1]), true})
			}
		}
		if err := mc.Run(p, 1_000_000); err != nil {
			return err
		}
		mc.Trace = nil
		machines[i] = mc
	}

	var steps uint64
	t0 := time.Now()
	for steps == 0 || time.Since(t0) < e.size.layerTime {
		for i, p := range progs {
			mc := machines[i]
			mc.Reset()
			id := tr.begin("emu.Machine.Run", parent)
			err := mc.Run(p, 1_000_000)
			tr.end(id)
			if err != nil {
				return err
			}
			steps += mc.Retired
		}
	}
	res.add("emu.ns_per_step", "ns", float64(time.Since(t0).Nanoseconds())/float64(steps))

	h, err := cache.NewHierarchy(cache.DefaultHierConfig())
	if err != nil {
		return err
	}
	id := tr.begin("cache.Hierarchy.Access", parent)
	n := 0
	t0 = time.Now()
	for n == 0 || time.Since(t0) < e.size.layerTime {
		for _, a := range stream {
			h.Access(a.addr, 0, a.write)
		}
		n += len(stream)
	}
	res.add("cache.ns_per_access", "ns", float64(time.Since(t0).Nanoseconds())/float64(n))
	tr.end(id)
	return nil
}

// sweepAsm times assembling every kernel's source.
func sweepAsm(e *env, tr *tracer, parent int, res *result) error {
	ks := kernels.Kernels()
	calls := 0
	t0 := time.Now()
	for calls == 0 || time.Since(t0) < e.size.layerTime {
		for _, k := range ks {
			id := tr.begin("asm.AssembleUnit", parent)
			_, err := asm.AssembleUnit(k.Source)
			tr.end(id)
			if err != nil {
				return err
			}
			calls++
		}
	}
	res.add("asm.assemble_us", "us", float64(time.Since(t0).Nanoseconds())/1e3/float64(calls))
	return nil
}

// sweepSuite runs one small differential sweep, a fault campaign of four
// trials per site (the CLI's -quick size) and every experiment once.
func sweepSuite(e *env, tr *tracer, parent int, res *result) error {
	ctx := context.Background()
	id := tr.begin("diffcheck.Check", parent)
	t0 := time.Now()
	rep, err := diffcheck.Check(ctx, diffcheck.Options{Programs: e.size.sweepCheck, Seed: cliSeed, Workers: workers})
	d := time.Since(t0)
	tr.end(id)
	if err != nil {
		return err
	}
	if !rep.Ok() {
		return fmt.Errorf("diffcheck: %d divergence(s)", len(rep.Failures))
	}
	res.add("diffcheck.runs", "count", float64(rep.Runs))
	res.add("diffcheck.us_per_run", "us", float64(d.Nanoseconds())/1e3/float64(rep.Runs))

	id = tr.begin("campaign.Run", parent)
	t0 = time.Now()
	crep, err := campaign.Run(ctx, campaign.Options{Seed: cliSeed, Trials: 4, Workers: workers,
		Journal: filepath.Join(e.scratch, "sweep-fault.jsonl")})
	d = time.Since(t0)
	tr.end(id)
	if err != nil {
		return err
	}
	if err := campaign.Verify(crep); err != nil {
		return err
	}
	res.add("campaign.trials", "count", float64(len(crep.Trials)))
	res.add("campaign.ms_per_trial", "ms", float64(d.Nanoseconds())/1e6/float64(len(crep.Trials)))

	t0 = time.Now()
	for _, x := range core.Experiments() {
		id := tr.begin("core."+x.Name, parent)
		r, err := x.Run(core.Options{Parallel: workers, Ctx: ctx})
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", x.Name, err)
		}
		if !r.Pass {
			return fmt.Errorf("experiment %s did not reproduce", x.Name)
		}
	}
	res.add("core.suite_ms", "ms", float64(time.Since(t0).Nanoseconds())/1e6)
	return nil
}

// sweepServe drives a small cold set and its warm resubmissions through
// an in-process server, then times the layers a job passes through —
// key derivation, the scan runner, store reads and writes — by calling
// them directly.
func sweepServe(e *env, tr *tracer, parent int, res *result) error {
	ctx := context.Background()
	cold, warm := serveSpecs(e.seed, e.size.sweepMasks)
	dir, err := os.MkdirTemp(e.scratch, "sweep-serve-")
	if err != nil {
		return err
	}
	r, err := startRig(dir)
	if err != nil {
		return err
	}
	defer r.close()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	id := tr.begin("serve.closed-loop", parent)
	p, err := runServePass(r, cold, warm, res)
	tr.end(id)
	if err != nil {
		return err
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	for _, name := range []string{"serve.executed", "serve.cache.hits", "serve.deduped", "serve.retries", "serve.shed", "serve.failed"} {
		res.add(name, "count", float64(p.after[name]-p.before[name]))
	}
	res.add("serve.jobs.tracked", "count", float64(p.after["serve.jobs.tracked"]))
	res.add("serve.heap_bytes_per_submit", "B", float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc))/float64(len(cold)+len(warm)))
	res.add("runtime.gc_cycles.cold", "count", float64(p.gcCold))
	res.add("runtime.gc_cycles.warm", "count", float64(p.gcWarm))

	// perCall times fn over every cold job, repeating for at least d, and
	// returns the mean microseconds per call.
	perCall := func(name string, fn func(i int) error) (float64, error) {
		id := tr.begin(name, parent)
		defer tr.end(id)
		calls := 0
		t0 := time.Now()
		for calls == 0 || time.Since(t0) < e.size.layerTime {
			for i := range cold {
				if err := fn(i); err != nil {
					return 0, err
				}
				calls++
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(calls), nil
	}
	keys := make([]string, len(cold))
	canon := make([]serve.JobSpec, len(cold))
	keyUS, err := perCall("serve.Key", func(i int) (err error) {
		keys[i], canon[i], err = serve.Key(cold[i])
		return err
	})
	if err != nil {
		return err
	}
	bodies := make([][]byte, len(cold))
	getUS, err := perCall("serve.Store.Get", func(i int) error {
		b, outcome, err := r.srv.Store().Get(keys[i])
		if err == nil && outcome != serve.Hit {
			err = fmt.Errorf("store get %s: %v, want hit", keys[i], outcome)
		}
		bodies[i] = b
		return err
	})
	if err != nil {
		return err
	}
	other, err := serve.OpenStore(filepath.Join(dir, "put"))
	if err != nil {
		return err
	}
	putUS, err := perCall("serve.Store.Put", func(i int) error { return other.Put(keys[i], bodies[i]) })
	if err != nil {
		return err
	}
	scan, _ := serve.Runner(serve.KindScan)
	var runnerUS []float64
	for i := range canon {
		id := tr.begin("serve.Runner.Run", parent)
		t0 := time.Now()
		_, err := scan.Run(ctx, canon[i], serve.RunOpts{})
		runnerUS = append(runnerUS, float64(time.Since(t0).Nanoseconds())/1e3)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	coldUS := quantile(millis(p.coldLat), 0.5) * 1e3
	warmUS := quantile(millis(p.warmLat), 0.5) * 1e3
	runnerP50 := quantile(runnerUS, 0.5)
	res.add("serve.key_us", "us", keyUS)
	res.add("serve.store_get_us", "us", getUS)
	res.add("serve.store_put_us", "us", putUS)
	res.add("serve.runner_us.p50", "us", runnerP50)
	res.add("serve.runner_us.p99", "us", quantile(runnerUS, 0.99))
	res.add("serve.cold_other_us", "us", coldUS-keyUS-runnerP50-putUS)
	res.add("serve.warm_other_us", "us", warmUS-keyUS-getUS)
	return nil
}

// sweepHost times a 4 KiB write plus fsync in the scratch directory.
func sweepHost(e *env, tr *tracer, parent int, res *result) error {
	id := tr.begin("os.File.Sync", parent)
	defer tr.end(id)
	f, err := os.Create(filepath.Join(e.scratch, "fsync"))
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, 4096)
	var us []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if _, err := f.Write(buf); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	res.add("host.fsync_us", "us", median(us))
	return nil
}
