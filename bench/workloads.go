package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pandora/internal/asm"
	"pandora/internal/cache"
	"pandora/internal/core"
	"pandora/internal/diffcheck"
	"pandora/internal/faults/campaign"
	"pandora/internal/isa"
	"pandora/internal/kernels"
	"pandora/internal/mem"
	"pandora/internal/parallel"
	"pandora/internal/pipeline"
	"pandora/internal/serve"
)

// ---- contract: the full leakage-contract enumeration ----

// runContract times whole kernels.Enumerate passes over the contract
// table at two workers while another fits in the timed phase (at least
// one), then scans the seeded cell sample one cell at a time. Throughput
// is cells per second of enumeration; a latency sample is one cell's
// scan. Every pass must reproduce CONTRACT_table.json byte for byte, and
// every sampled cell must reach its golden verdict.
func runContract(e *env) (*result, error) {
	ctx := context.Background()
	var golden []byte
	var leaks map[string]func(diffcheck.ToggleMask) bool
	var names []string
	var variants []diffcheck.CacheVariant
	setups, err := setupTimes(e.size.setupReps, func() (err error) {
		if golden, err = os.ReadFile(filepath.Join(e.root, "CONTRACT_table.json")); err != nil {
			return err
		}
		if leaks, err = goldenLeaks(golden); err != nil {
			return err
		}
		if names, err = kernels.ValidateNames(e.size.kernels); err != nil {
			return err
		}
		if variants, err = selectVariants(e.size.variants); err != nil {
			return err
		}
		// Warm-up: the baseline cell of every kernel on every variant,
		// which also proves each kernel assembles and computes its
		// primitive before timing starts.
		for _, name := range names {
			k, _ := kernels.KernelByName(name)
			for _, v := range variants {
				if _, err := kernels.Run(ctx, k, diffcheck.PipeConfig(0), v.Config, v.Stride, "none"); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &result{}
	var cells float64
	var busy time.Duration
	start := time.Now()
	for pass := 0; e.more(start, pass); pass++ {
		t0 := time.Now()
		rep, err := kernels.Enumerate(ctx, kernels.Options{Kernels: names, Variants: variantNames(variants), Workers: workers})
		busy += time.Since(t0)
		if err == nil {
			cells += float64(rep.Masks * len(rep.Variants) * len(rep.Kernels))
			err = checkContract(rep, golden)
		}
		res.op(err)
	}
	sample, _ := cellSample(e, names, variants)
	lats, _, err := scanCells(ctx, sample, leaks, nil, 0)
	res.op(err)
	res.timings(setups, cells, busy, lats)
	res.note("throughput counts contract cells; a latency sample is one kernels.Run cell scan")
	return res, nil
}

// selectVariants resolves cache-variant names in harness order (nil =
// every variant).
func selectVariants(names []string) ([]diffcheck.CacheVariant, error) {
	canon, err := kernels.ValidateVariants(names)
	if err != nil {
		return nil, err
	}
	var out []diffcheck.CacheVariant
	for _, v := range diffcheck.CacheVariants() {
		for _, n := range canon {
			if v.Name == n {
				out = append(out, v)
			}
		}
	}
	return out, nil
}

func variantNames(vs []diffcheck.CacheVariant) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Name
	}
	return out
}

// sampleCell is one (kernel, variant, mask) cell of the contract table.
type sampleCell struct {
	k    kernels.Kernel
	v    diffcheck.CacheVariant
	mask diffcheck.ToggleMask
}

// cellSample is a seeded sub-grid of the contract table: every selected
// kernel and variant under cellMasks masks drawn by seed. It returns the
// cells in enumeration order and the masks.
func cellSample(e *env, names []string, variants []diffcheck.CacheVariant) ([]sampleCell, []diffcheck.ToggleMask) {
	perm := rand.New(rand.NewSource(e.seed)).Perm(diffcheck.AllMasks)[:e.size.cellMasks]
	sort.Ints(perm)
	masks := make([]diffcheck.ToggleMask, len(perm))
	for i, m := range perm {
		masks[i] = diffcheck.ToggleMask(m)
	}
	var cells []sampleCell
	for _, n := range names {
		k, _ := kernels.KernelByName(n)
		for _, v := range variants {
			for _, m := range masks {
				cells = append(cells, sampleCell{k, v, m})
			}
		}
	}
	return cells, masks
}

// scanCells scans each cell on its own through kernels.Run, with a span
// around each when tr is non-nil, and checks its verdict against the
// golden. It returns every scan's latency and the number of leaking
// cells.
func scanCells(ctx context.Context, cells []sampleCell, leaks map[string]func(diffcheck.ToggleMask) bool, tr *tracer, parent int) ([]time.Duration, int, error) {
	var lats []time.Duration
	leaking := 0
	for _, c := range cells {
		id := tr.begin("kernels.Run", parent)
		t0 := time.Now()
		sum, err := kernels.Run(ctx, c.k, diffcheck.PipeConfig(c.mask), c.v.Config, c.v.Stride, c.mask.String())
		lats = append(lats, time.Since(t0))
		tr.end(id)
		if err != nil {
			return nil, 0, err
		}
		leak := len(sum.ByClass) > 0
		if leak {
			leaking++
		}
		if want := leaks[c.k.Name+"/"+c.v.Name](c.mask); leak != want {
			return nil, 0, fmt.Errorf("kernels.Run %s/%s mask %v: leaks=%v, golden %v", c.k.Name, c.v.Name, c.mask, leak, want)
		}
	}
	return lats, leaking, nil
}

// goldenLeaks indexes CONTRACT_table.json: for "kernel/variant", whether
// the cell under a mask leaks.
func goldenLeaks(golden []byte) (map[string]func(diffcheck.ToggleMask) bool, error) {
	var rep kernels.Report
	if err := json.Unmarshal(golden, &rep); err != nil {
		return nil, fmt.Errorf("CONTRACT_table.json: %w", err)
	}
	out := map[string]func(diffcheck.ToggleMask) bool{}
	for _, k := range rep.Kernels {
		for _, v := range k.Variants {
			bits, err := hex.DecodeString(v.LeakMask)
			if err != nil {
				return nil, fmt.Errorf("CONTRACT_table.json: %s/%s: %w", k.Kernel, v.Variant, err)
			}
			out[k.Kernel+"/"+v.Variant] = func(m diffcheck.ToggleMask) bool { return bits[m/8]>>(m%8)&1 == 1 }
		}
	}
	return out, nil
}

// checkContract compares an enumeration against the committed golden:
// every (kernel, variant) row must match the golden's clean/leaking
// counts and per-mask leak bitmap, and the whole library's report must
// match the file byte for byte.
func checkContract(rep *kernels.Report, golden []byte) error {
	var want kernels.Report
	if err := json.Unmarshal(golden, &want); err != nil {
		return fmt.Errorf("CONTRACT_table.json: %w", err)
	}
	rows := map[string]kernels.VariantReport{}
	for _, k := range want.Kernels {
		for _, v := range k.Variants {
			rows[k.Kernel+"/"+v.Variant] = v
		}
	}
	for _, k := range rep.Kernels {
		for _, v := range k.Variants {
			if w := rows[k.Kernel+"/"+v.Variant]; w != v {
				return fmt.Errorf("%s/%s: got clean %d leaking %d mask %s, golden clean %d leaking %d mask %s",
					k.Kernel, v.Variant, v.Clean, v.Leaking, v.LeakMask, w.Clean, w.Leaking, w.LeakMask)
			}
		}
	}
	if len(rep.Kernels) < len(want.Kernels) || len(rep.Variants) < len(want.Variants) {
		return nil // a subset has no whole-file form to compare
	}
	got, err := rep.Marshal()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, golden) {
		return fmt.Errorf("report differs from CONTRACT_table.json")
	}
	return nil
}

// ---- cycles: the bare cycle loop ----

// spinKernel is the long-running member of the cycles program set: a
// counted load/add/store loop over the diffcheck scratch region, so the
// steady-state cycle loop dominates rather than per-Run set-up.
const spinKernel = `
	addi x1, x0, 8000
	addi x2, x0, 0
	lui  x29, 1
loop:
	ld   x3, 0(x29)
	add  x2, x2, x3
	sd   x2, 8(x29)
	sd   x3, 16(x29)
	addi x1, x1, -1
	bne  x1, x0, loop
	halt
`

// cycleMasks span the cost spectrum: no optimizations, the store-queue-
// heavy silent-store path, the squash-prone value predictor, and every
// toggle at once.
var cycleMasks = []diffcheck.ToggleMask{0, diffcheck.TogSilentStores, diffcheck.TogPredictor, diffcheck.AllMasks - 1}

// cyclePrograms is the seeded program set: n generated, guaranteed-
// terminating diffcheck programs plus the spin kernel.
func cyclePrograms(seed int64, n int) []isa.Program {
	rng := rand.New(rand.NewSource(seed))
	progs := make([]isa.Program, 0, n+1)
	for i := 0; i < n; i++ {
		progs = append(progs, diffcheck.Generate(rng))
	}
	return append(progs, asm.MustAssemble(spinKernel))
}

// newMachine builds a pipeline over a fresh diffcheck memory image.
func newMachine(cfg pipeline.Config, hc cache.HierConfig) (*pipeline.Machine, error) {
	m := mem.New()
	diffcheck.InitMemory(m)
	h, err := cache.NewHierarchy(hc)
	if err != nil {
		return nil, err
	}
	return pipeline.New(cfg, m, h)
}

// cycleBlock runs every program once under each mask, spread over two
// workers, each Run on a fresh machine with invariant checks, taint and
// probes off, so a block's simulated cycle count is a pure function of
// the seed. Machines are never reused: a trained value or branch
// predictor can make a later Run, even of the same program, diverge from
// the oracle, while fresh machines are what the differential harness
// validates.
func cycleBlock(progs []isa.Program, linear bool) (int64, error) {
	type cell struct {
		mask diffcheck.ToggleMask
		prog isa.Program
	}
	var cells []cell
	for _, mask := range cycleMasks {
		for _, p := range progs {
			cells = append(cells, cell{mask, p})
		}
	}
	counts, err := parallel.Map(context.Background(), workers, cells, func(_ context.Context, _ int, c cell) (int64, error) {
		cfg := diffcheck.PipeConfig(c.mask)
		cfg.CheckInvariants = false
		cfg.LinearScheduler = linear
		m, err := newMachine(cfg, cache.DefaultHierConfig())
		if err != nil {
			return 0, err
		}
		res, err := m.Run(c.prog)
		if err != nil {
			return 0, fmt.Errorf("mask %v: %w", c.mask, err)
		}
		return res.Cycles, nil
	})
	var total int64
	for _, c := range counts {
		total += c
	}
	return total, err
}

// runCycles times cycles blocks while another fits in the timed phase.
// Throughput is simulated cycles per host second; a latency sample is one
// block. Every block must simulate the same cycle count, equal to the
// linear reference scheduler's and, at the default and held-out seeds,
// to the pinned value.
func runCycles(e *env) (*result, error) {
	var progs []isa.Program
	var warm int64
	setups, err := setupTimes(e.size.setupReps, func() (err error) {
		progs = cyclePrograms(e.seed, e.size.programs)
		warm, err = cycleBlock(progs, false)
		return err
	})
	if err != nil {
		return nil, err
	}
	res := &result{}
	var cycles float64
	var busy time.Duration
	var lats []time.Duration
	start := time.Now()
	for b := 0; e.more(start, b); b++ {
		t0 := time.Now()
		c, err := cycleBlock(progs, false)
		d := time.Since(t0)
		if err == nil && c != warm {
			err = fmt.Errorf("block %d simulated %d cycles, the warm-up block %d", b, c, warm)
		}
		res.op(err)
		cycles += float64(c)
		busy += d
		lats = append(lats, d)
	}
	ref, err := cycleBlock(progs, true)
	if err == nil && ref != warm {
		err = fmt.Errorf("block simulated %d cycles, the linear reference scheduler %d", warm, ref)
	}
	res.op(err)
	if pin, ok := e.size.pinnedCycles[e.seed]; ok {
		var err error
		if warm != pin {
			err = fmt.Errorf("block simulated %d cycles at seed %d, pinned %d", warm, e.seed, pin)
		}
		res.op(err)
	}
	res.timings(setups, cycles, busy, lats)
	res.note("throughput counts simulated cycles (%d per block); a latency sample is one block", warm)
	return res, nil
}

// ---- suite: the local CLI analyses ----

// cliSeed is the default -seed of `pandora check` and `pandora fault`.
// The suite and the sweep's differential and fault runs use it whatever
// -seed says: the suite measures what a user runs by default, and some
// other corpus seeds expose simulator divergences (check -seed 9 does),
// which would fail the run rather than measure it.
const cliSeed = 1

// runSuite times whole passes of what `pandora all`, `pandora check` and
// `pandora fault` run by default — every registered experiment, the
// differential sweep, and the fault campaign journaled to disk — while
// another fits in the timed phase. Throughput counts items (an
// experiment, a checked program, a fault trial) per second; a latency
// sample is one of the three commands.
func runSuite(e *env) (*result, error) {
	ctx := context.Background()
	var exps []*core.Experiment
	setups, err := setupTimes(e.size.setupReps, func() error {
		// Warm-up: one run of every experiment, which fills the lazily
		// built tables some experiments share.
		exps = core.Experiments()
		for _, x := range exps {
			if _, err := x.Run(core.Options{Parallel: workers, Ctx: ctx}); err != nil {
				return fmt.Errorf("%s: %w", x.Name, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &result{}
	var items float64
	var busy time.Duration
	var lats []time.Duration
	timed := func(fn func() (int, error)) {
		t0 := time.Now()
		n, err := fn()
		d := time.Since(t0)
		lats = append(lats, d)
		busy += d
		items += float64(n)
		res.op(err)
	}
	start := time.Now()
	for pass := 0; e.more(start, pass); pass++ {
		timed(func() (int, error) {
			for _, x := range exps {
				r, err := x.Run(core.Options{Parallel: workers, Ctx: ctx})
				if err == nil && !r.Pass {
					err = fmt.Errorf("experiment %s did not reproduce", x.Name)
				}
				if err != nil {
					return 0, err
				}
			}
			return len(exps), nil
		})
		timed(func() (int, error) {
			rep, err := diffcheck.Check(ctx, diffcheck.Options{Programs: e.size.checkPrograms, Seed: cliSeed, Workers: workers})
			if err == nil && !rep.Ok() {
				err = fmt.Errorf("diffcheck: %d divergence(s)", len(rep.Failures))
			}
			return rep.Programs, err
		})
		timed(func() (int, error) {
			rep, err := campaign.Run(ctx, campaign.Options{
				Seed: cliSeed, Trials: e.size.faultTrials, Workers: workers,
				Journal: filepath.Join(e.scratch, fmt.Sprintf("fault-%d.jsonl", pass)),
			})
			if err != nil {
				return 0, err
			}
			return len(rep.Trials), campaign.Verify(rep)
		})
	}
	res.timings(setups, items, busy, lats)
	res.note("throughput counts experiments, checked programs and fault trials; a latency sample is one of all/check/fault")
	return res, nil
}

// ---- serve: the job service over HTTP ----

// rig is one in-process serve.Server on an ephemeral loopback port.
type rig struct {
	srv    *serve.Server
	base   string
	client *http.Client
	cancel context.CancelFunc
	done   chan error
}

func startRig(dir string) (*rig, error) {
	srv, err := serve.New(serve.Options{CacheDir: dir, Workers: workers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &rig{srv: srv, base: "http://" + ln.Addr().String(), client: &http.Client{Timeout: 2 * time.Minute},
		cancel: cancel, done: make(chan error, 1)}
	go func() { r.done <- srv.Serve(ctx, ln) }()
	resp, err := r.client.Get(r.base + "/healthz")
	if err != nil {
		r.close()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return r, nil
}

// close stops the server and waits for it to drain.
func (r *rig) close() {
	r.cancel()
	<-r.done
	r.client.CloseIdleConnections()
}

func (r *rig) getJSON(url string, v any) error {
	resp, err := r.client.Get(url)
	if err != nil {
		return err
	}
	return decode(resp, v)
}

func decode(resp *http.Response, v any) error {
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("%s: HTTP %d: %s", resp.Request.URL.Path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}

// submit POSTs one job and waits for it to settle.
func (r *rig) submit(spec serve.JobSpec) (serve.JobView, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return serve.JobView{}, err
	}
	resp, err := r.client.Post(r.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return serve.JobView{}, err
	}
	var v serve.JobView
	if err := decode(resp, &v); err != nil {
		return v, err
	}
	for v.State != "done" && v.State != "failed" {
		if err := r.getJSON(r.base+"/v1/jobs/"+v.ID+"?wait=60s", &v); err != nil {
			return v, err
		}
	}
	if v.State != "done" {
		return v, fmt.Errorf("job %s failed: %s", v.ID, v.Error)
	}
	return v, nil
}

func (r *rig) stats() (map[string]uint64, error) {
	var m map[string]uint64
	return m, r.getJSON(r.base+"/v1/stats", &m)
}

// drive submits specs in order from workers clients, each sending its
// next job only after the previous one settled (a closed loop). check
// inspects each settled job on the client that submitted it. drive
// returns every submission's latency and error in spec order, and the
// wall time.
func (r *rig) drive(specs []serve.JobSpec, check func(i int, v serve.JobView) error) ([]time.Duration, []error, time.Duration) {
	lats := make([]time.Duration, len(specs))
	errs := make([]error, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(specs); i = int(next.Add(1) - 1) {
				s := time.Now()
				v, err := r.submit(specs[i])
				lats[i] = time.Since(s)
				if err == nil {
					err = check(i, v)
				}
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	return lats, errs, time.Since(t0)
}

// warmPerCold is how many cache-hit resubmissions follow each distinct
// job: the read path gets three times the write path's traffic.
const warmPerCold = 3

// serveSpecs is the cold job set: every kernel's source scanned on
// masks distinct machines drawn from the toggle space by seed, each
// rendered in the canonical machine-spec grammar. warm lists the cold
// indices of the resubmissions: one seeded permutation replayed
// warmPerCold times, so two submissions of one job are a whole cold set
// apart and never in flight together (which the server would coalesce).
func serveSpecs(seed int64, masks int) (cold []serve.JobSpec, warm []int) {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(diffcheck.AllMasks)[:masks]
	for _, k := range kernels.Kernels() {
		for _, m := range perm {
			cold = append(cold, serve.JobSpec{
				Kind:    serve.KindScan,
				Source:  k.Source,
				Machine: core.FormatMachineSpec(diffcheck.PipeConfig(diffcheck.ToggleMask(m))),
			})
		}
	}
	order := rng.Perm(len(cold))
	for i := 0; i < warmPerCold; i++ {
		warm = append(warm, order...)
	}
	return cold, warm
}

// servePass is one cold phase then one warm phase on a running rig.
type servePass struct {
	coldLat, warmLat   []time.Duration
	coldWall, warmWall time.Duration
	before, after      map[string]uint64 // /v1/stats around the pass
	gcCold, gcWarm     uint32            // garbage collections during each phase
}

func numGC() uint32 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC
}

// runServePass drives the cold set and then its warm resubmissions, and
// checks the outputs: every job succeeds, warm bodies are byte-identical
// to their cold bodies, and the /v1/stats deltas show exactly one
// execution per cold job, one cache hit per warm job, and no retries,
// shedding or failures.
func runServePass(r *rig, cold []serve.JobSpec, warm []int, res *result) (*servePass, error) {
	p := &servePass{}
	var err error
	if p.before, err = r.stats(); err != nil {
		return nil, err
	}
	// Cold bodies are kept as digests: some scan results run to half a
	// megabyte, and the server already holds every body in its job table.
	digests := make([][sha256.Size]byte, len(cold))
	warmSpecs := make([]serve.JobSpec, len(warm))
	for i, ci := range warm {
		warmSpecs[i] = cold[ci]
	}
	gc0 := numGC()
	var coldErrs, warmErrs []error
	p.coldLat, coldErrs, p.coldWall = r.drive(cold, func(i int, v serve.JobView) error {
		if v.Cached {
			return fmt.Errorf("cold job %s served from the cache", v.ID)
		}
		digests[i] = sha256.Sum256(v.Result)
		return nil
	})
	gc1 := numGC()
	p.warmLat, warmErrs, p.warmWall = r.drive(warmSpecs, func(i int, v serve.JobView) error {
		switch {
		case !v.Cached:
			return fmt.Errorf("warm job %s was not a cache hit", v.ID)
		case sha256.Sum256(v.Result) != digests[warm[i]]:
			return fmt.Errorf("warm job %s: body differs from its cold run", v.ID)
		}
		return nil
	})
	p.gcCold, p.gcWarm = gc1-gc0, numGC()-gc1
	if p.after, err = r.stats(); err != nil {
		return nil, err
	}
	for _, err := range append(coldErrs, warmErrs...) {
		res.op(err)
	}
	want := map[string]uint64{"serve.executed": uint64(len(cold)), "serve.cache.hits": uint64(len(warm)),
		"serve.deduped": 0, "serve.retries": 0, "serve.shed": 0, "serve.failed": 0}
	for name, n := range want {
		if d := p.after[name] - p.before[name]; d != n {
			res.op(fmt.Errorf("/v1/stats %s rose by %d, want %d", name, d, n))
		}
	}
	return p, nil
}

// runServe starts an in-process server, drives the cold set and its warm
// resubmissions from two closed-loop clients, and repeats on a fresh
// server while another fits in the timed phase (at least one).
// Throughput is jobs per second; a latency sample is one job from POST
// to settled result.
func runServe(e *env) (*result, error) {
	var cold []serve.JobSpec
	var warm []int
	var r *rig
	setup := func() error {
		cold, warm = serveSpecs(e.seed, e.size.serveMasks)
		dir, err := os.MkdirTemp(e.scratch, "serve-")
		if err != nil {
			return err
		}
		if r, err = startRig(dir); err != nil {
			return err
		}
		// Warm-up: each kernel's scenario scan (keys outside the job set)
		// takes a job through the pool, the runner, the journal and the
		// store.
		for _, k := range kernels.Names() {
			if _, err := r.submit(serve.JobSpec{Kind: serve.KindScan, Scenario: k}); err != nil {
				return err
			}
		}
		return nil
	}
	setups, err := setupTimes(e.size.setupReps, func() error {
		if r != nil {
			r.close()
		}
		return setup()
	})
	if err != nil {
		return nil, err
	}
	res := &result{}
	var jobs float64
	var busy time.Duration
	var lats []time.Duration
	start := time.Now()
	for pass := 0; ; pass++ {
		p, err := runServePass(r, cold, warm, res)
		r.close()
		if err != nil {
			return nil, err
		}
		lats = append(append(lats, p.coldLat...), p.warmLat...)
		jobs += float64(len(cold) + len(warm))
		busy += p.coldWall + p.warmWall
		coldMS, warmMS := millis(p.coldLat), millis(p.warmLat)
		res.note("pass %d: cold %d jobs %.1f/s p50 %.3f ms p99 %.3f ms; warm %d jobs %.1f/s p50 %.3f ms p99 %.3f ms",
			pass, len(cold), float64(len(cold))/p.coldWall.Seconds(), quantile(coldMS, 0.5), quantile(coldMS, 0.99),
			len(warm), float64(len(warm))/p.warmWall.Seconds(), quantile(warmMS, 0.5), quantile(warmMS, 0.99))
		if !e.more(start, pass+1) {
			break
		}
		if err := setup(); err != nil {
			return nil, err
		}
	}
	res.timings(setups, jobs, busy, lats)
	res.note("throughput counts jobs (%d distinct scans, then %d cache-hit resubmissions); a latency sample is one job", len(cold), len(warm))
	return res, nil
}
