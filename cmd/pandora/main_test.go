package main

import (
	"os"
	"testing"
)

func TestParseWindow(t *testing.T) {
	for _, tc := range []struct {
		in     string
		lo, hi int64
		ok     bool
	}{
		{"10:20", 10, 20, true},
		{"10:", 10, -1, true},
		{"0x10:0x20", 16, 32, true},
		{"0:0", 0, 0, true},
		{"", 0, 0, false},
		{"5", 0, 0, false},
		{":5", 0, 0, false},
		{"x:5", 0, 0, false},
		{"5:y", 0, 0, false},
		{"1:2:3", 0, 0, false},
	} {
		lo, hi, err := parseWindow(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("parseWindow(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && (lo != tc.lo || hi != tc.hi) {
			t.Errorf("parseWindow(%q) = %d:%d, want %d:%d", tc.in, lo, hi, tc.lo, tc.hi)
		}
	}
}

// TestExitCodes runs subcommands in-process and pins their exit codes:
// 0 clean, 1 for findings (scan is a linter: a leak fails it), 2 for
// usage errors.
func TestExitCodes(t *testing.T) {
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devNull.Close()
	stdout, stderr := os.Stdout, os.Stderr
	defer func() { os.Stdout, os.Stderr = stdout, stderr }()

	for _, tc := range []struct {
		name string
		run  func([]string) int
		args []string
		want int
	}{
		{"scan clean scenario", runScan, []string{"-scenario", "stlf-baseline"}, 0},
		{"scan leaking scenario", runScan, []string{"-scenario", "stlf"}, 1},
		{"scan scenario with machine", runScan, []string{"-scenario", "stlf-baseline", "-machine", "vp"}, 2},
		{"scan scenario with secret", runScan, []string{"-scenario", "stlf-baseline", "-secret", "0x100:8"}, 2},
		{"scan without input", runScan, nil, 2},
		{"fault resume without journal", runFault, []string{"-resume"}, 2},
		{"trace window without colon", runTrace, []string{"-window", "5"}, 2},
		{"trace unknown format", runTrace, []string{"-format", "bogus"}, 2},
	} {
		os.Stdout, os.Stderr = devNull, devNull
		got := tc.run(tc.args)
		os.Stdout, os.Stderr = stdout, stderr
		if got != tc.want {
			t.Errorf("%s %v: exit %d, want %d", tc.name, tc.args, got, tc.want)
		}
	}
}
