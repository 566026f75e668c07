package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"pandora/internal/obs"
)

// sweepJSONL runs the sweep scenario and exports it as JSONL.
func sweepJSONL(t *testing.T, seed int64, workers int) []byte {
	t.Helper()
	res, err := RunTrace(context.Background(), "sweep", seed, workers, nil)
	if err != nil {
		t.Fatalf("sweep workers=%d: %v", workers, err)
	}
	var buf bytes.Buffer
	if err := res.Trace.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceSweepDeterministicAcrossWorkers: the same seed produces
// byte-identical JSONL on a repeat run and at every worker count.
func TestTraceSweepDeterministicAcrossWorkers(t *testing.T) {
	ref := sweepJSONL(t, 7, 1)
	if len(ref) == 0 {
		t.Fatal("empty sweep trace")
	}
	for _, workers := range []int{1, 2, 8} {
		if got := sweepJSONL(t, 7, workers); !bytes.Equal(got, ref) {
			t.Errorf("sweep JSONL differs between workers=1 and workers=%d", workers)
		}
	}
	if bytes.Equal(sweepJSONL(t, 8, 1), ref) {
		t.Error("different seeds produced identical sweep traces")
	}
}

// TestTraceAESChromeCycles: the Chrome export of the aes scenario is
// valid JSON and its retire track's maximum timestamp equals the
// scenario's cycle count, and the text report renders.
func TestTraceAESChromeCycles(t *testing.T) {
	res, err := RunTrace(context.Background(), "aes", 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 {
		t.Fatalf("aes scenario reported %d cycles", res.Cycles)
	}
	var buf bytes.Buffer
	if err := res.Trace.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Ts  int64  `json:"ts"`
			Tid int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	max := int64(-1)
	for _, e := range file.TraceEvents {
		if e.Ph != "M" && e.Tid == int(obs.TrackRetire) && e.Ts > max {
			max = e.Ts
		}
	}
	if max != res.Cycles {
		t.Errorf("chrome retire-track max ts = %d, want Cycles = %d", max, res.Cycles)
	}
	// The silent-store precondition must be visible in the trace.
	if res.Trace.CountKind(obs.KindTaintLeak) == 0 {
		t.Error("aes scenario trace has no taint-leak events")
	}
	var report bytes.Buffer
	if err := res.Trace.WriteReport(&report); err != nil {
		t.Fatalf("report export: %v", err)
	}
	if report.Len() == 0 {
		t.Error("aes report export is empty")
	}
}

// TestTraceScenarioErrors covers the unknown-scenario path.
func TestTraceScenarioErrors(t *testing.T) {
	if _, err := RunTrace(context.Background(), "nope", 1, 1, nil); err == nil {
		t.Error("unknown scenario did not error")
	}
}

// TestTraceSpeculationBaselines: a trace is the scan run with a probe
// attached, so the speculation baselines carry no taint-leak events
// while their enabled counterparts do, and every trace's taint-leak
// count is exactly its scan's event total.
func TestTraceSpeculationBaselines(t *testing.T) {
	for _, tc := range []struct {
		scenario string
		leaks    bool
	}{
		{"stlf", true},
		{"stlf-baseline", false},
		{"specvect", true},
		{"specvect-baseline", false},
	} {
		t.Run(tc.scenario, func(t *testing.T) {
			res, err := RunTrace(context.Background(), tc.scenario, 1, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			sum, err := ScanScenario(context.Background(), tc.scenario)
			if err != nil {
				t.Fatal(err)
			}
			n := res.Trace.CountKind(obs.KindTaintLeak)
			if (n > 0) != tc.leaks {
				t.Errorf("%d taint-leak events, want leaks=%v", n, tc.leaks)
			}
			if uint64(n) != sum.Total {
				t.Errorf("trace has %d taint-leak events, scan reported %d", n, sum.Total)
			}
		})
	}
}
