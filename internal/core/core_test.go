package core

import (
	"strings"
	"testing"
)

// TestAllExperimentsPass runs every registered experiment at default
// effort and requires each to reproduce its paper artifact.
func TestAllExperimentsPass(t *testing.T) {
	for _, e := range Experiments() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			res, err := e.Run(Options{})
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			if !res.Pass {
				t.Errorf("%s did not reproduce %s:\n%s", e.Name, e.Artifact, res.Text)
			}
			if res.Text == "" {
				t.Errorf("%s produced no report", e.Name)
			}
		})
	}
}

func TestRegistry(t *testing.T) {
	if len(Experiments()) < 12 {
		t.Errorf("only %d experiments registered", len(Experiments()))
	}
	if _, ok := Get("table1"); !ok {
		t.Error("table1 missing")
	}
	if _, ok := Get("nope"); ok {
		t.Error("bogus experiment found")
	}
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names not sorted: %v", names)
		}
	}
}

func TestWitnessReports(t *testing.T) {
	reports, err := RunWitnessesParallel(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if r.LeakDelta == 0 {
			t.Errorf("witness %q: no timing difference with the optimization (%d vs %d)",
				r.Name, r.OptA, r.OptB)
		}
		if r.BaseDelta != 0 {
			t.Errorf("witness %q: baseline leaks (%d vs %d) — kernels must differ only microarchitecturally",
				r.Name, r.BaseA, r.BaseB)
		}
	}
}

func TestExperimentTextMentionsArtifact(t *testing.T) {
	for _, name := range []string{"table1", "fig5", "fig7"} {
		e, _ := Get(name)
		res, err := e.Run(Options{})
		if err != nil {
			t.Fatal(err)
		}
		frag := map[string]string{
			"table1": "Table I", "fig5": "Figure 5", "fig7": "Figure 7",
		}[name]
		if !strings.Contains(res.Text, frag) {
			t.Errorf("%s report does not mention %q", name, frag)
		}
	}
}
