package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"pandora/internal/faults"
	"pandora/internal/journal"
)

// smallOpts is a bounded campaign profile used by every test: two sites
// with short detection paths plus the control arm, two trials each.
func smallOpts() Options {
	return Options{
		Seed:    3,
		Trials:  2,
		Sites:   []faults.Site{faults.SiteCacheLine, faults.SiteMiscompile},
		Workers: 2,
	}
}

func TestSmallCampaignPassesVerify(t *testing.T) {
	rep, err := Run(context.Background(), smallOpts())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := Verify(rep); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.ControlTrials != 2 || rep.FalsePositives != 0 {
		t.Errorf("control arm: %d trials, %d false positives", rep.ControlTrials, rep.FalsePositives)
	}
	// Two swept sites plus the control arm's own summary row.
	if len(rep.Sites) != 3 || rep.Sites[2].Site != ControlSite {
		t.Fatalf("report covers %d sites (last %q), want 3 ending in control",
			len(rep.Sites), rep.Sites[len(rep.Sites)-1].Site)
	}
	for _, s := range rep.Sites[:2] {
		if s.Fired == 0 || s.Detected == 0 {
			t.Errorf("site %s: fired %d, detected %d", s.Site, s.Fired, s.Detected)
		}
	}
	// 2 sites × 2 trials + 2 control trials, in canonical order.
	if len(rep.Trials) != 6 {
		t.Fatalf("report has %d trials, want 6", len(rep.Trials))
	}
}

func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	reports := make([][]byte, 0, 2)
	for _, workers := range []int{1, 4} {
		opts := smallOpts()
		opts.Workers = workers
		rep, err := Run(context.Background(), opts)
		if err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		reports = append(reports, b)
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Errorf("worker count changed the report:\n1: %s\n4: %s", reports[0], reports[1])
	}
}

// TestResumeByteIdentical is the ISSUE acceptance criterion: interrupt a
// journaled campaign (simulated by truncating the journal to a prefix of
// completed trials), resume it, and require the final report to be
// byte-identical to the uninterrupted run.
func TestResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()

	full := smallOpts()
	full.Journal = filepath.Join(dir, "full.journal")
	wantRep, err := Run(context.Background(), full)
	if err != nil {
		t.Fatalf("uninterrupted Run: %v", err)
	}
	want, err := json.Marshal(wantRep)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}

	// Interrupt: keep the header and the first two completed trials.
	data, err := os.ReadFile(full.Journal)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < 4 {
		t.Fatalf("journal has %d lines, want >= 4", len(lines))
	}
	truncated := filepath.Join(dir, "resume.journal")
	if err := os.WriteFile(truncated, bytes.Join(lines[:3], nil), 0o644); err != nil {
		t.Fatalf("write truncated journal: %v", err)
	}

	res := smallOpts()
	res.Journal = truncated
	res.Resume = true
	res.Workers = 1 // different worker count must not matter either
	gotRep, err := Run(context.Background(), res)
	if err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	got, err := json.Marshal(gotRep)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed report differs from uninterrupted run:\nwant: %s\ngot:  %s", want, got)
	}
}

// TestResumeToleratesTornFinalLine simulates an append interrupted
// mid-write: the half-written trial line must be ignored and rerun, not
// poison the resume — and the rerun trial must land in the journal, so
// a second resume of the same file finds all 6 trials and reruns none.
func TestResumeToleratesTornFinalLine(t *testing.T) {
	dir := t.TempDir()

	full := smallOpts()
	full.Journal = filepath.Join(dir, "full.journal")
	wantRep, err := Run(context.Background(), full)
	if err != nil {
		t.Fatalf("uninterrupted Run: %v", err)
	}
	want, _ := json.Marshal(wantRep)

	data, err := os.ReadFile(full.Journal)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	torn := append(bytes.Join(lines[:3], nil), lines[3][:len(lines[3])/2]...)
	tornPath := filepath.Join(dir, "torn.journal")
	if err := os.WriteFile(tornPath, torn, 0o644); err != nil {
		t.Fatalf("write torn journal: %v", err)
	}

	for pass := 1; pass <= 2; pass++ {
		res := smallOpts()
		res.Journal = tornPath
		res.Resume = true
		var reran atomic.Int64 // trial workers log concurrently
		res.Log = func(format string, _ ...any) {
			if strings.HasPrefix(format, "campaign: %s trial %d") {
				reran.Add(1)
			}
		}
		gotRep, err := Run(context.Background(), res)
		if err != nil {
			t.Fatalf("resume %d: %v", pass, err)
		}
		if got, _ := json.Marshal(gotRep); !bytes.Equal(got, want) {
			t.Errorf("resume %d: report differs:\nwant: %s\ngot:  %s", pass, want, got)
		}
		if wantReran := map[int]int64{1: 4, 2: 0}[pass]; reran.Load() != wantReran {
			t.Errorf("resume %d reran %d trials, want %d", pass, reran.Load(), wantReran)
		}
	}
	if n := len(journaledTrials(t, smallOpts(), tornPath)); n != 6 {
		t.Errorf("journal holds %d trials after resuming, want 6", n)
	}
}

// journaledTrials reads the trials a campaign journal holds, failing
// the test on any rejected line.
func journaledTrials(t *testing.T, opts Options, path string) []Trial {
	t.Helper()
	h := headerFor(&opts)
	key, _ := json.Marshal(h)
	recs, rejected, err := journal.Read(path, key, h)
	if err != nil || rejected != 0 {
		t.Fatalf("read journal: %d rejected, err %v", rejected, err)
	}
	trials := make([]Trial, len(recs))
	for i, rec := range recs {
		if err := json.Unmarshal(rec, &trials[i]); err != nil {
			t.Fatalf("trial record %d: %v", i, err)
		}
	}
	return trials
}

// TestResumeRejectsCorruptedTrial flips one digit of a journaled
// detection cycle. The record's MAC must reject it, so the trial reruns
// and the resumed report stays byte-identical to the uninterrupted run
// instead of silently reporting the corrupted cycle.
func TestResumeRejectsCorruptedTrial(t *testing.T) {
	opts := smallOpts()
	opts.Workers = 1 // journal in canonical order: line 1 is cache-line trial 0
	opts.Journal = filepath.Join(t.TempDir(), "c.journal")
	wantRep, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want, _ := json.Marshal(wantRep)

	data, err := os.ReadFile(opts.Journal)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	at := bytes.Index(lines[1], []byte(`"cycle":`))
	if at < 0 {
		t.Fatalf("trial line 1 has no detection cycle: %s", lines[1])
	}
	end := at + len(`"cycle":`)
	for lines[1][end] >= '0' && lines[1][end] <= '9' {
		end++
	}
	lines[1][end-1] = '0' + (lines[1][end-1]-'0'+1)%10
	if err := os.WriteFile(opts.Journal, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatalf("write corrupted journal: %v", err)
	}

	opts.Resume = true
	gotRep, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	if got, _ := json.Marshal(gotRep); !bytes.Equal(got, want) {
		t.Errorf("corrupted-journal resume report differs:\nwant: %s\ngot:  %s", want, got)
	}
}

func TestResumeRejectsForeignJournal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.journal")

	first := smallOpts()
	first.Journal = path
	if _, err := Run(context.Background(), first); err != nil {
		t.Fatalf("Run: %v", err)
	}

	other := smallOpts()
	other.Seed = 99 // different campaign identity
	other.Journal = path
	other.Resume = true
	if _, err := Run(context.Background(), other); err == nil ||
		!strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("resume with mismatched seed: err = %v, want identity rejection", err)
	}
}

func TestJournalRecordsEveryTrial(t *testing.T) {
	dir := t.TempDir()
	opts := smallOpts()
	opts.Journal = filepath.Join(dir, "c.journal")
	if _, err := Run(context.Background(), opts); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if h := headerFor(&opts); h.Version != journalVersion || h.Seed != 3 || h.Image == "" {
		t.Errorf("header %+v: want version %d, seed 3, non-empty image digest", h, journalVersion)
	}
	if n := len(journaledTrials(t, opts, opts.Journal)); n != 6 {
		t.Errorf("journal holds %d trials, want 6", n)
	}
}

func TestVerifyGates(t *testing.T) {
	ok := &Report{
		Sites: []SiteSummary{{Site: "prf", Trials: 2, Fired: 2, Detected: 2}},
	}
	if err := Verify(ok); err != nil {
		t.Errorf("clean report rejected: %v", err)
	}
	if err := Verify(&Report{
		Sites: []SiteSummary{{Site: ControlSite, Trials: 2, Detected: 1}},
	}); err == nil {
		t.Errorf("control-arm false positive accepted")
	}
	if err := Verify(&Report{
		Sites: []SiteSummary{{Site: "prf", Trials: 2, Fired: 2, Detected: 0}},
	}); err == nil {
		t.Errorf("undetected site accepted")
	}
	if err := Verify(&Report{
		Sites: []SiteSummary{{Site: "prf", Trials: 2, Fired: 0, Detected: 0}},
	}); err == nil {
		t.Errorf("never-firing site accepted")
	}
	if err := Verify(&Report{
		Trials: []Trial{{Site: "prf", Note: "harness error"}},
	}); err == nil {
		t.Errorf("infrastructure note accepted")
	}
}

// TestIdleSkipMatchesReference runs every campaign site's default trials
// twice: under the reference scheduler, which ticks every cycle, and
// under the default, which skips the cycles after one that changed
// nothing. Each trial must fire on the same cycle and be caught by the
// same detectors on the same cycles with the same text, and every
// supervised abort must dump the same CoreDump. The watchdog's 20,000
// idle cycles in issue-drop and fence-stuck trials are the skip's
// longest jumps.
func TestIdleSkipMatchesReference(t *testing.T) {
	compared := 0
	for _, site := range faults.CampaignSites() {
		t.Run(site.String(), func(t *testing.T) {
			for _, seed := range []int64{1, 7} {
				var reps [2]*Report
				var dirs [2]string
				for i, linear := range []bool{true, false} {
					dirs[i] = t.TempDir()
					opts := Options{Seed: seed, Sites: []faults.Site{site}, Control: 1, DumpDir: dirs[i], linear: linear}
					rep, err := Run(context.Background(), opts)
					if err != nil {
						t.Fatalf("seed %d linear=%v: Run: %v", seed, linear, err)
					}
					reps[i] = rep
				}
				ref, got := reps[0].Trials, reps[1].Trials
				if len(ref) != len(got) {
					t.Fatalf("seed %d: %d trials under the reference, %d with the skip", seed, len(ref), len(got))
				}
				for k := range ref {
					a, _ := json.Marshal(ref[k])
					b, _ := json.Marshal(got[k])
					if !bytes.Equal(a, b) {
						t.Errorf("seed %d trial %d diverges:\nreference %s\nskip      %s", seed, k, a, b)
					}
				}
				dumps, _ := filepath.Glob(filepath.Join(dirs[0], "*.json"))
				skipped, _ := filepath.Glob(filepath.Join(dirs[1], "*.json"))
				if len(dumps) != len(skipped) {
					t.Fatalf("seed %d: %d core dumps under the reference, %d with the skip", seed, len(dumps), len(skipped))
				}
				for _, p := range dumps {
					a, _ := os.ReadFile(p)
					b, err := os.ReadFile(filepath.Join(dirs[1], filepath.Base(p)))
					if err != nil || !bytes.Equal(a, b) {
						t.Errorf("seed %d: core dump %s differs with the skip (%v)", seed, filepath.Base(p), err)
					}
					compared++
				}
			}
		})
	}
	if compared == 0 {
		t.Fatal("no trial dumped a CoreDump; the comparison covered no supervised abort")
	}
}
