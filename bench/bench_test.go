package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"pandora/internal/kernels"
)

// smokeSize runs every workload and the layer sweep through the same
// code as the benchmark, output checks included, in a few seconds.
var smokeSize = size{
	kernels:       []string{"chacha20-qr"},
	variants:      []string{"default-lru"},
	programs:      2,
	checkPrograms: 16,
	faultTrials:   4,
	serveMasks:    2,
	setupReps:     2,

	layerTime:   5 * time.Millisecond,
	cellMasks:   2,
	ablateEvery: 1,
	sweepCheck:  8,
	sweepMasks:  2,
}

// benchmarkNames returns the metric names BENCHMARK.json lists under key.
func benchmarkNames(t *testing.T, key string) []string {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name string }
	if err := json.Unmarshal(spec[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

func TestSmoke(t *testing.T) {
	e2e, layers := benchmarkNames(t, "end_to_end"), benchmarkNames(t, "per_layer")
	for _, tc := range []struct {
		workload, trace string
		want            []string
	}{
		{"contract", "0", e2e},
		{"cycles", "0", e2e},
		{"suite", "0", e2e},
		{"serve", "0", e2e},
		{"cycles", "1", layers},
	} {
		t.Run(tc.workload+"/trace"+tc.trace, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", tc.workload, "--seed", "1", "--seconds", "0", "--trace", tc.trace}
			if code := run(args, "..", smokeSize, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]metric
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("result %+v", res)
			}
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			if strings.Join(got, " ") != strings.Join(tc.want, " ") {
				t.Errorf("metrics\n got %v\nwant %v", got, tc.want)
			}
		})
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "cycles", "--trace", "2"},
		{"--workload", "cycles", "extra"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, "..", smokeSize, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and no result", args, code, stdout.String())
		}
	}
}

// TestCheckContractCatchesMismatch proves the contract output check
// accepts the golden itself and rejects a report that differs from it in
// one cell row or anywhere else in the file.
func TestCheckContractCatchesMismatch(t *testing.T) {
	golden, err := os.ReadFile("../CONTRACT_table.json")
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*kernels.Report){
		"none":       func(*kernels.Report) {},
		"cell count": func(r *kernels.Report) { r.Kernels[0].Variants[0].Leaking++ },
		"title":      func(r *kernels.Report) { r.Kernels[0].Title += "!" },
	} {
		var rep kernels.Report
		if err := json.Unmarshal(golden, &rep); err != nil {
			t.Fatal(err)
		}
		mutate(&rep)
		if err := checkContract(&rep, golden); (err == nil) != (name == "none") {
			t.Errorf("mutation %s: check returned %v", name, err)
		}
	}
}
