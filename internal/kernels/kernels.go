// Package kernels is the constant-time crypto-kernel library behind
// `pandora contract`: real cryptographic primitives (ChaCha20,
// Poly1305, AES SubBytes in two implementations, a Montgomery-ladder
// conditional swap) lowered to the toy ISA with `.secret` labels on
// their keys and state, plus the contract-enumeration engine that sweeps
// each kernel under the taint scanner across the full optimization-mask
// space × cache variants — the machine-generated, scenario-diverse
// extension of the paper's Table I that Barthe et al. ("Testing
// side-channel security of cryptographic implementations against future
// microarchitectures") build by hand-picked example.
//
// Each kernel computes the genuine primitive (the package tests check
// every output byte against a Go reference implementation), so a
// verdict here is a statement about real crypto code, not a synthetic
// witness. Kernels register themselves as scan/trace scenarios through
// core.RegisterScenario, which makes every kernel reachable from
// `pandora scan`, `pandora trace`, and the serve job API without any
// edits to internal/core.
package kernels

import (
	"context"
	"fmt"
	"strings"

	"pandora/internal/asm"
	"pandora/internal/cache"
	"pandora/internal/core"
	"pandora/internal/diffcheck"
	"pandora/internal/mem"
	"pandora/internal/obs"
	"pandora/internal/pipeline"
	"pandora/internal/taint"
)

// Kernel is one crypto kernel: toy-ISA source with `.secret` labels,
// the memory image it runs against, and a reference check on its
// outputs.
type Kernel struct {
	// Name is the registry/CLI key, e.g. "chacha20-qr".
	Name string
	// Title is a one-line description for listings and reports.
	Title string
	// ConstantTime is the designed verdict under the baseline
	// constant-time contract (access addresses + branch predicates
	// observable) on the unoptimized machine: true means the kernel
	// must scan clean at mask 0, false marks a deliberate contrast
	// kernel (table-lookup AES) that violates the base contract.
	ConstantTime bool
	// Source is the assembly text, carrying the `.secret` directives
	// that label the kernel's key/state regions.
	Source string
	// Setup writes the kernel's inputs — secret values and public
	// tables — into data memory before a run. It must be deterministic.
	Setup func(m *mem.Memory)
	// Check verifies the kernel's outputs in post-run memory against a
	// Go reference implementation of the primitive.
	Check func(m *mem.Memory) error

	// unit is Source assembled once by registerKernel and shared,
	// read-only, by every run of the kernel.
	unit asm.Unit
}

// kernelTable is built by this file's init calling each per-kernel
// constructor explicitly — one authoritative display order, not
// file-name init-order luck.
var kernelTable []Kernel

func registerKernel(k Kernel) {
	for _, have := range kernelTable {
		if have.Name == k.Name {
			panic(fmt.Sprintf("kernels: duplicate kernel %q", k.Name))
		}
	}
	unit, err := asm.AssembleUnit(k.Source)
	if err != nil {
		panic(fmt.Errorf("kernels: %s: %w", k.Name, err))
	}
	if len(unit.Secrets) == 0 {
		panic(fmt.Errorf("kernels: %s declares no .secret region", k.Name))
	}
	k.unit = unit
	kernelTable = append(kernelTable, k)
}

// Kernels returns the kernel library in display order. The slice is the
// caller's to keep.
func Kernels() []Kernel {
	return append([]Kernel(nil), kernelTable...)
}

// KernelByName resolves one kernel.
func KernelByName(name string) (Kernel, bool) {
	for _, k := range kernelTable {
		if k.Name == name {
			return k, true
		}
	}
	return Kernel{}, false
}

// Names lists the kernel names in display order.
func Names() []string {
	out := make([]string, len(kernelTable))
	for i, k := range kernelTable {
		out[i] = k.Name
	}
	return out
}

// Run executes the kernel once on the pipeline under the taint scanner
// with the cache-address observer armed — the constant-time contract
// run — on a scan context from core's shared pool. cfg chooses the
// optimizations under test; hcfg and stride choose the cache hierarchy
// (stride attaches the stride prefetcher, the diffcheck "stride-pbuf"
// variant). machine is the spec string recorded in the summary. k must
// come from Kernels or KernelByName; only the registry assembles a
// kernel.
func Run(ctx context.Context, k Kernel, cfg pipeline.Config, hcfg cache.HierConfig, stride bool, machine string) (core.ScanSummary, error) {
	return core.WithScanContext(func(sc *core.ScanContext) (core.ScanSummary, error) {
		st, err := run(ctx, sc, k, cfg, hcfg, stride, taint.DefaultEventLimit)
		if err != nil {
			return core.ScanSummary{}, err
		}
		return core.Summarize(st, k.Name, machine), nil
	})
}

// run is Run on sc, without the summary: it returns sc's taint state,
// whose recorder retains at most eventLimit events verbatim (its counts
// and first events per class are exact at any limit). The run starts from
// the state a freshly built machine, memory, hierarchy and taint state
// would, whatever sc ran before.
func run(ctx context.Context, sc *core.ScanContext, k Kernel, cfg pipeline.Config, hcfg cache.HierConfig, stride bool, eventLimit int) (*taint.State, error) {
	unit := k.unit
	if unit.Prog == nil {
		return nil, fmt.Errorf("kernels: %s is not registered", k.Name)
	}
	flag, stop := pipeline.CancelFromContext(ctx)
	defer stop()
	cfg.Cancel = flag

	m, st, err := sc.Boot(cfg, diffcheck.CacheVariant{Config: hcfg, Stride: stride}, k.Setup)
	if err != nil {
		return nil, err
	}
	st.ObserveAddrs = true
	st.Rec.Limit = eventLimit
	for _, s := range unit.Secrets {
		if _, err := st.DefineSecret(taint.Secret{Name: s.Name, Base: s.Base, Len: s.Len}); err != nil {
			return nil, err
		}
	}
	if _, err := m.Run(unit.Prog); err != nil {
		return nil, err
	}
	if k.Check != nil {
		if err := k.Check(m.Memory()); err != nil {
			return nil, fmt.Errorf("kernels: %s: wrong output: %w", k.Name, err)
		}
	}
	return st, nil
}

// baselineHier is the cache hierarchy the scan/trace scenarios use: the
// default geometry with self-checks on, matching diffcheck's
// "default-lru" variant.
func baselineHier() cache.HierConfig {
	h := cache.DefaultHierConfig()
	h.SelfCheck = true
	return h
}

// init builds the library in its fixed display order — the clean
// implementations first, the deliberately contract-violating table
// lookup last among the AES pair's contrasts — and registers every
// kernel as a scan/trace scenario.
func init() {
	registerKernel(chachaQuarterRound())
	registerKernel(poly1305Accumulate())
	registerKernel(bsaesSubBytes())
	registerKernel(tableAESSubBytes())
	registerKernel(montLadderCSwap())
	for _, k := range Kernels() {
		k := k
		verdict := "base-contract clean"
		if !k.ConstantTime {
			verdict = "violates the base contract"
		}
		core.RegisterScenario(core.Scenario{
			Name:  k.Name,
			Title: fmt.Sprintf("%s (%s)", k.Title, verdict),
			Run: func(ctx context.Context, probe obs.Probe) (core.ScanSummary, error) {
				return runScenario(ctx, k, probe)
			},
		})
	}
}

// runScenario is the kernel's registered scenario: one run on the
// baseline machine (mask 0, default cache) under the base contract,
// watched by probe when non-nil. Constant-time kernels report zero
// events here; aes-ttable reports its cache-addr leaks.
func runScenario(ctx context.Context, k Kernel, probe obs.Probe) (core.ScanSummary, error) {
	cfg := diffcheck.PipeConfig(0)
	cfg.Probe = probe
	return Run(ctx, k, cfg, baselineHier(), false, "")
}

// ValidateNames checks a kernel-name list against the library, returning
// the library order (not the request order) so two requests naming the
// same set canonicalize identically. An empty list means every kernel.
func ValidateNames(names []string) ([]string, error) {
	if len(names) == 0 {
		return Names(), nil
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		if _, ok := KernelByName(n); !ok {
			return nil, fmt.Errorf("kernels: unknown kernel %q (want %s)", n, strings.Join(Names(), ", "))
		}
		want[n] = true
	}
	var out []string
	for _, k := range kernelTable {
		if want[k.Name] {
			out = append(out, k.Name)
		}
	}
	return out, nil
}
