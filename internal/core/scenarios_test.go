package core

import (
	"context"
	"testing"
)

// TestScenarioRegistryBuiltins pins the built-in table: the eight core
// scenarios are present, in their historical display order, with their
// historical capabilities — the compatibility contract the registry
// conversion had to preserve.
func TestScenarioRegistryBuiltins(t *testing.T) {
	want := []struct {
		name        string
		scan, trace bool
	}{
		{"aes", true, true},
		{"aes-baseline", true, true},
		{"ebpf", true, true},
		{"stlf", true, true},
		{"stlf-baseline", true, false},
		{"specvect", true, true},
		{"specvect-baseline", true, false},
		{"sweep", false, true},
	}
	all := Scenarios()
	if len(all) < len(want) {
		t.Fatalf("registry has %d scenarios, want at least %d", len(all), len(want))
	}
	for i, w := range want {
		s := all[i]
		if s.Name != w.name {
			t.Fatalf("display position %d is %q, want %q", i, s.Name, w.name)
		}
		if s.Supports(AnalysisScan) != w.scan || s.Supports(AnalysisTrace) != w.trace {
			t.Errorf("%s: scan=%v trace=%v, want scan=%v trace=%v",
				s.Name, s.Supports(AnalysisScan), s.Supports(AnalysisTrace), w.scan, w.trace)
		}
	}
}

// TestScenarioNamesMatchSupports: the name lists the front ends print
// are exactly the Supports-filtered registry, and every named scenario
// resolves.
func TestScenarioNamesMatchSupports(t *testing.T) {
	for _, a := range []Analysis{AnalysisScan, AnalysisTrace} {
		names := ScenarioNames(a)
		if len(names) == 0 {
			t.Fatalf("no scenarios support %s", a)
		}
		for _, name := range names {
			s, ok := ScenarioByName(name)
			if !ok {
				t.Fatalf("%s list names unknown scenario %q", a, name)
			}
			if !s.Supports(a) {
				t.Fatalf("%s list includes %q which does not support %s", a, name, a)
			}
		}
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
	scan := func(ctx context.Context) (ScanSummary, error) { return ScanSummary{}, nil }
	expectPanic("empty name", Scenario{Scan: scan})
	expectPanic("no analysis", Scenario{Name: "no-analysis-at-all"})
	expectPanic("duplicate", Scenario{Name: "aes", Scan: scan})
}

// TestScanScenarioRejectsTraceOnly: asking the wrong front end for a
// scenario is an error naming the supported set, not a nil-call panic.
func TestScanScenarioRejectsTraceOnly(t *testing.T) {
	if _, err := ScanScenario(context.Background(), "sweep"); err == nil {
		t.Fatal("scan of trace-only scenario succeeded")
	}
	if _, err := RunTrace(context.Background(), "stlf-baseline", 0, 1); err == nil {
		t.Fatal("trace of scan-only scenario succeeded")
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
