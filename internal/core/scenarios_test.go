package core

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"pandora/internal/asm"
	"pandora/internal/obs"
	"pandora/internal/taint"
)

// TestScenarioRegistryBuiltins pins the built-in table: the seven core
// scenarios are present in their historical display order, and the
// trace list is the registry plus the sweep corpus.
func TestScenarioRegistryBuiltins(t *testing.T) {
	want := []string{"aes", "aes-baseline", "ebpf", "stlf", "stlf-baseline", "specvect", "specvect-baseline"}
	names := ScanScenarios()
	if len(names) < len(want) {
		t.Fatalf("registry has %d scenarios, want at least %d", len(names), len(want))
	}
	for i, w := range want {
		if names[i] != w {
			t.Fatalf("display position %d is %q, want %q", i, names[i], w)
		}
	}
	trace := TraceScenarios()
	if !slices.Equal(trace, append(names, "sweep")) {
		t.Errorf("trace scenarios = %v, want the registry then sweep", trace)
	}
}

// TestRegisterScenarioPanics: the init-time misuse guards have teeth.
func TestRegisterScenarioPanics(t *testing.T) {
	expectPanic := func(name string, s Scenario) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: RegisterScenario did not panic", name)
			}
		}()
		RegisterScenario(s)
	}
	run := func(context.Context, obs.Probe) (ScanSummary, error) { return ScanSummary{}, nil }
	expectPanic("empty name", Scenario{Run: run})
	expectPanic("nil run", Scenario{Name: "no-run-at-all"})
	expectPanic("reserved name", Scenario{Name: "sweep", Run: run})
	expectPanic("duplicate", Scenario{Name: "aes", Run: run})
}

// TestScanScenarioRejectsTraceOnly: the sweep corpus has no secret and
// no scan verdict; asking the scanner for it is an error naming the
// scannable set, not a panic.
func TestScanScenarioRejectsTraceOnly(t *testing.T) {
	_, err := ScanScenario(context.Background(), "sweep")
	if err == nil || !strings.Contains(err.Error(), "aes-baseline") {
		t.Fatalf("scan of the sweep corpus: err = %v, want an error naming the scan scenarios", err)
	}
}

// TestScanScenarioVerdicts pins the scanner's verdict on every built-in
// scan scenario: each baseline scans clean, and each optimization leaks
// its class with the expected secret label — silent stores leak the
// AES key (the Figure 6 precondition), the eBPF IMP prefetcher leaks
// the protected kernel byte, and the two speculation witnesses leak
// only with their predictor on.
func TestScanScenarioVerdicts(t *testing.T) {
	for _, tc := range []struct {
		scenario   string
		opt, label string // empty: the scenario must scan clean
	}{
		{"aes-baseline", "", ""},
		{"aes", "silent-store", "key"},
		{"ebpf", "prefetcher", "kernel"},
		{"stlf-baseline", "", ""},
		{"stlf", "spec-forward", "secret"},
		{"specvect-baseline", "", ""},
		{"specvect", "wrong-path-load", "secret"},
	} {
		t.Run(tc.scenario, func(t *testing.T) {
			sum, err := ScanScenario(context.Background(), tc.scenario)
			if err != nil {
				t.Fatal(err)
			}
			if tc.opt == "" {
				if sum.Total != 0 {
					t.Fatalf("baseline recorded %d leak events: %+v", sum.Total, sum.ByClass)
				}
				return
			}
			if !sum.HasLeak(tc.opt, tc.label) {
				t.Fatalf("no %s leak of %q (%d %s events): %+v",
					tc.opt, tc.label, sum.Count(tc.opt), tc.opt, sum.ByClass)
			}
		})
	}
}

// TestScanSourceRejectsOversizedSecret: a secret region too large to
// shadow — declared by a directive or passed alongside the source — is
// a prompt error, never an out-of-memory crash.
func TestScanSourceRejectsOversizedSecret(t *testing.T) {
	for _, tc := range []struct {
		name  string
		src   string
		extra []taint.Secret
	}{
		{"directive", ".secret 0x100, 0x7fffffffffffffff\nhalt\n", nil},
		{"extra", "halt\n", []taint.Secret{{Name: "secret", Base: 0, Len: 0xffffffffffff}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			_, err := ScanSource(context.Background(), tc.src, "", tc.extra)
			if err == nil {
				t.Fatal("oversized secret accepted")
			}
			if d := time.Since(start); d > time.Second {
				t.Errorf("rejection took %v", d)
			}
			var asmErr *asm.Error
			var secErr *taint.SecretError
			if !errors.As(err, &asmErr) && !errors.As(err, &secErr) {
				t.Errorf("error %v (%T) is neither an *asm.Error nor a *taint.SecretError", err, err)
			}
		})
	}
}
