package core

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"pandora/internal/obs"
)

// Scenario is one named leakage scenario. `pandora scan`, `pandora
// trace` and the serve job runners all resolve scenarios from this one
// registry, and every registered scenario is reachable from all of them:
// a trace is the scan run with a recording probe attached, so the two
// front ends can never drift apart or disagree about what ran.
type Scenario struct {
	// Name is the CLI/API key, e.g. "aes" or "stlf-baseline".
	Name string
	// Title is a one-line description for listings.
	Title string
	// Run builds the scenario's shadowed machine, runs it once and
	// reports what the taint scanner found. ctx bounds the run:
	// cancellation stops the machine at its next checkpoint. probe, when
	// non-nil, receives every event the machine emits; attaching one
	// never changes the summary.
	Run func(ctx context.Context, probe obs.Probe) (ScanSummary, error)
}

// sweepScenario names the one trace scenario outside the registry: a
// seeded multi-machine corpus with no secret, so it has no scan verdict.
const sweepScenario = "sweep"

// registry holds every registered scenario in registration order, which
// is the display order. Registration happens in package init functions
// (core's built-ins first — package init order follows the import
// graph, so core's init always precedes an importer's), after which the
// table is effectively read-only; the mutex guards against a misbehaved
// late registration racing a reader.
var scenarioReg struct {
	mu    sync.RWMutex
	order []Scenario
	names map[string]int
}

// RegisterScenario adds a scenario to the shared table. It is intended
// to be called from package init functions: core registers its
// built-ins, and contributor packages (internal/kernels) register
// theirs without editing core. The display order is registration order.
// An empty, duplicate or reserved ("sweep") name, or a nil Run, panics —
// these are programmer errors that should fail at init, not surface as
// a half-working table at run time.
func RegisterScenario(s Scenario) {
	switch {
	case s.Name == "":
		panic("core: RegisterScenario with empty name")
	case s.Name == sweepScenario:
		panic(fmt.Sprintf("core: scenario name %q is reserved for the trace corpus", s.Name))
	case s.Run == nil:
		panic(fmt.Sprintf("core: scenario %q has no Run", s.Name))
	}
	scenarioReg.mu.Lock()
	defer scenarioReg.mu.Unlock()
	if scenarioReg.names == nil {
		scenarioReg.names = make(map[string]int)
	}
	if _, dup := scenarioReg.names[s.Name]; dup {
		panic(fmt.Sprintf("core: duplicate scenario %q", s.Name))
	}
	scenarioReg.names[s.Name] = len(scenarioReg.order)
	scenarioReg.order = append(scenarioReg.order, s)
}

// init registers the built-in scenarios, in display order.
func init() {
	RegisterScenario(Scenario{
		Name:  "aes",
		Title: "bitslice-AES victim spills under silent stores (Figure 6 precondition)",
		Run:   func(ctx context.Context, p obs.Probe) (ScanSummary, error) { return scanAES(ctx, true, p) },
	})
	RegisterScenario(Scenario{
		Name:  "aes-baseline",
		Title: "the same AES kernel on a baseline machine (scans clean)",
		Run:   func(ctx context.Context, p obs.Probe) (ScanSummary, error) { return scanAES(ctx, false, p) },
	})
	RegisterScenario(Scenario{
		Name:  "ebpf",
		Title: "eBPF universal read gadget through the 3-level IMP (Section V-B)",
		Run:   scanEBPF,
	})
	// The speculation witnesses run the timing-witness kernels with the
	// secret word labeled instead of contrasted; each baseline runs the
	// same kernel with the mechanism off and scans clean.
	spec := func(witness, scenario string, enabled bool) func(context.Context, obs.Probe) (ScanSummary, error) {
		return func(ctx context.Context, p obs.Probe) (ScanSummary, error) {
			return scanSpecWitness(ctx, witness, scenario, enabled, p)
		}
	}
	RegisterScenario(Scenario{
		Name:  "stlf",
		Title: "store-to-leak forwarding witness (arXiv:1905.05725)",
		Run:   spec("store-to-leak forwarding", "stlf", true),
	})
	RegisterScenario(Scenario{
		Name:  "stlf-baseline",
		Title: "the same kernel with the forwarding predictor off (scans clean)",
		Run:   spec("store-to-leak forwarding", "stlf-baseline", false),
	})
	RegisterScenario(Scenario{
		Name:  "specvect",
		Title: "wrong-path vector-lane leakage (arXiv:2302.01131)",
		Run:   spec("wrong-path vector lane", "specvect", true),
	})
	RegisterScenario(Scenario{
		Name:  "specvect-baseline",
		Title: "the same kernel with speculation off (scans clean)",
		Run:   spec("wrong-path vector lane", "specvect-baseline", false),
	})
}

// Scenarios returns the scenario table in display order. The slice is
// the caller's to keep; the Scenario values are immutable.
func Scenarios() []Scenario {
	scenarioReg.mu.RLock()
	defer scenarioReg.mu.RUnlock()
	return append([]Scenario(nil), scenarioReg.order...)
}

// ScenarioByName resolves one scenario.
func ScenarioByName(name string) (Scenario, bool) {
	scenarioReg.mu.RLock()
	defer scenarioReg.mu.RUnlock()
	if i, ok := scenarioReg.names[name]; ok {
		return scenarioReg.order[i], true
	}
	return Scenario{}, false
}

// ScanScenarios names the registered scenarios — everything the taint
// scanner can run — in display order.
func ScanScenarios() []string {
	scenarioReg.mu.RLock()
	defer scenarioReg.mu.RUnlock()
	out := make([]string, len(scenarioReg.order))
	for i, s := range scenarioReg.order {
		out[i] = s.Name
	}
	return out
}

// TraceScenarios names the scenarios the trace probe can run: every
// registered scenario, then the sweep corpus.
func TraceScenarios() []string {
	return append(ScanScenarios(), sweepScenario)
}

// ScanScenario runs one registered scenario under the taint scanner.
// ctx bounds the run: a cancelled or expired context stops the machine
// at its next cooperative checkpoint.
func ScanScenario(ctx context.Context, name string) (ScanSummary, error) {
	s, ok := ScenarioByName(name)
	if !ok {
		return ScanSummary{}, fmt.Errorf("core: unknown scan scenario %q (want %s)",
			name, strings.Join(ScanScenarios(), ", "))
	}
	return s.Run(ctx, nil)
}
