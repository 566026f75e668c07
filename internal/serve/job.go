// Package serve is the leakage-analysis-as-a-service layer behind
// `pandora serve`: a long-running HTTP/JSON job service that runs the
// repository's six analyses — bench (experiment reproduction), check
// (differential oracle), scan (taint scanner), fault (injection
// campaign), trace (cycle-accurate probe) and contract (crypto-kernel
// leakage-contract enumeration) — on a sharded worker pool behind a
// content-addressed, tamper-evident result cache.
//
// Every job is described by a JobSpec whose canonical form (defaults
// filled in, fields foreign to the job kind zeroed) is hashed together
// with the service code version into a SHA-256 job key. Because every
// analysis in this repository is deterministic — results are a pure
// function of the canonical spec, bit-identical at any worker count —
// the key fully identifies the result, and a repeated submission is a
// cache lookup instead of a re-execution. Results are stored under an
// authenticated identity header (HMAC-SHA256 over key and body, the
// campaign journal's identity-header discipline applied to a
// content-addressed store), so a tampered or version-skewed entry is
// detected, rejected and transparently recomputed.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// CodeVersion fingerprints the analysis semantics baked into this
// build. It participates in every job key, so results cached by an
// older service version miss (rather than poison) a newer one. Bump it
// whenever an analysis' observable output changes.
// v2: scan jobs canonicalize the machine spec (equivalent spellings now
// share a cache key) and the contract kind exists.
// v3: the pipeline publishes the Figure 4 store-queue steps as obs
// events (addr-resolved, ssload-no-port, ssload-return, ssload-late,
// reaches-sq-head, fill-request), so trace jobs' jsonl, chrome and report
// exports and their events metric gain those events.
const CodeVersion = "pandora-serve-v3"

// JobKind names one of the six analyses.
type JobKind string

const (
	KindBench    JobKind = "bench"
	KindCheck    JobKind = "check"
	KindScan     JobKind = "scan"
	KindFault    JobKind = "fault"
	KindTrace    JobKind = "trace"
	KindContract JobKind = "contract"
)

// JobSpec describes one job. Only the fields meaningful for the Kind
// are significant; Canonical zeroes the rest and fills in defaults, so
// two specs describing the same work hash to the same key. Execution
// concurrency is deliberately NOT part of the spec: every analysis is
// bit-identical at any worker count, so the server chooses workers
// freely without fragmenting the cache.
type JobSpec struct {
	Kind JobKind `json:"kind"`
	// Seed seeds the seeded analyses (check corpus, fault campaign,
	// trace sweep, bench experiments that sample).
	Seed int64 `json:"seed,omitempty"`

	// TimeoutMS bounds the job's execution in wall-clock milliseconds.
	// Zero means the server default; the server caps requested values at
	// its configured maximum. Like Workers, a timeout changes how long a
	// result may take to compute, never what it is, so Normalize drops it
	// from the canonical spec and it does not fragment the cache.
	TimeoutMS int `json:"timeout_ms,omitempty"`

	// Experiment names the core experiment a bench job reproduces.
	Experiment string `json:"experiment,omitempty"`
	// Samples / SecretLen / Full mirror core.Options for bench jobs.
	Samples   int  `json:"samples,omitempty"`
	SecretLen int  `json:"secret_len,omitempty"`
	Full      bool `json:"full,omitempty"`

	// Programs / Masks mirror diffcheck.Options for check jobs.
	Programs int `json:"programs,omitempty"`
	Masks    int `json:"masks,omitempty"`

	// Scenario names a built-in scenario for scan and trace jobs.
	Scenario string `json:"scenario,omitempty"`
	// Source is assembly text for scan jobs over user programs (the
	// "program bytes" component of the job key); Machine is the machine
	// spec it runs on and Secrets lists extra labeled regions as
	// "base:len[:name]" strings.
	Source  string   `json:"source,omitempty"`
	Machine string   `json:"machine,omitempty"`
	Secrets []string `json:"secrets,omitempty"`

	// Format selects the trace export: jsonl, chrome or report.
	Format string `json:"format,omitempty"`

	// Trials / Sites mirror campaign.Options for fault jobs.
	Trials int      `json:"trials,omitempty"`
	Sites  []string `json:"sites,omitempty"`

	// Kernels / Variants select the crypto-kernel and cache-variant
	// subsets for contract jobs (empty = all, in library/harness order).
	// Contract jobs reuse Masks as "enumerate the first N toggle masks"
	// (0 = the full 2⁹ space).
	Kernels  []string `json:"kernels,omitempty"`
	Variants []string `json:"variants,omitempty"`
}

// JobResult is the canonical result body stored in the cache and
// returned to clients. Marshaling is deterministic: struct fields keep
// declaration order and encoding/json sorts map keys, so a result
// serializes to the same bytes every time it is computed.
type JobResult struct {
	Kind JobKind `json:"kind"`
	Key  string  `json:"key"`
	// Pass is the analysis verdict: the experiment reproduced, the
	// check/fault sweep came back clean, the scan found no leaks.
	Pass bool `json:"pass"`
	// Text is the human-readable report the equivalent CLI would print.
	Text string `json:"text,omitempty"`
	// Note carries the verdict detail when Pass is false (e.g. the fault
	// campaign's Verify error).
	Note string `json:"note,omitempty"`
	// Export is the trace export body (JSONL, Chrome JSON or report
	// text) for trace jobs.
	Export string `json:"export,omitempty"`
	// Output is kind-specific structured data (the scan summary, the
	// fault campaign report) as embedded JSON.
	Output json.RawMessage `json:"output,omitempty"`
	// Metrics carries headline numbers (cycles, event counts, rates).
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Error is set on cached deterministic failures: the analysis error
	// that any re-execution of this spec would reproduce. A result with
	// Error set serves as a failed job, never re-executed.
	Error string `json:"error,omitempty"`
	// Attempts lists the failed tries that preceded this terminal result,
	// oldest first. Empty (and omitted) when the first attempt succeeded,
	// so retry-free results serialize byte-identically to a server that
	// never retried anything.
	Attempts []Attempt `json:"attempts,omitempty"`
}

// keyEnvelope is what the job key actually hashes: the code version and
// the canonical spec, in fixed field order.
type keyEnvelope struct {
	Code string  `json:"code"`
	Spec JobSpec `json:"spec"`
}

// Canonical returns the spec's canonical form: kind-specific defaults
// filled, fields foreign to the kind zeroed, and the spec validated
// against the runner registry. The canonical form — not the submitted
// one — is what the job key hashes and what the runner executes.
func Canonical(spec JobSpec) (JobSpec, error) {
	r, ok := runners[spec.Kind]
	if !ok {
		return JobSpec{}, fmt.Errorf("serve: unknown job kind %q (want bench, check, scan, fault, trace or contract)", spec.Kind)
	}
	norm, err := r.Normalize(spec)
	if err != nil {
		return JobSpec{}, err
	}
	norm.Kind = spec.Kind
	return norm, nil
}

// Key returns the job's content-addressed cache key: hex SHA-256 over
// the canonical (code version, spec) envelope.
func Key(spec JobSpec) (string, JobSpec, error) {
	canon, err := Canonical(spec)
	if err != nil {
		return "", JobSpec{}, err
	}
	b, err := json.Marshal(keyEnvelope{Code: CodeVersion, Spec: canon})
	if err != nil {
		return "", JobSpec{}, fmt.Errorf("serve: canonicalize: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), canon, nil
}

// MarshalResult serializes a result to its canonical cache-body bytes.
func MarshalResult(res *JobResult) ([]byte, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return nil, fmt.Errorf("serve: marshal result: %w", err)
	}
	return append(b, '\n'), nil
}
