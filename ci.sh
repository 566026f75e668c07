#!/bin/sh
# CI gate: vet, build, and run the full test suite under the race
# detector. -short keeps the paper-scale sweeps (keyrec -full, large
# fig6 sample counts) out of CI; they are exercised manually via
# `pandora <experiment> -full` or the single-shot benchmarks.
set -eux

go vet ./...
go build ./...
go test -race -short ./...

# Stats encapsulation: no package writes through another package's
# exported Stats value — counters are owned where they are declared and
# read through getters or obs.Registry snapshots. -v lists the owning
# packages (internal/serve's service counters are among them).
go run ./tools/statscheck -v internal cmd

# Differential oracle: pipeline vs emulator over a bounded seeded corpus,
# all optimization-toggle extremes plus rotating coverage, invariant
# checks on. The 9-bit mask space includes the speculation toggles
# (wrong-path fetch, StLF predictor) and the stride schedule guarantees
# the quick corpus exercises them; squash recovery races under the race
# detector. The -inject leg proves the oracle can actually catch a
# miscompiled pipeline, so a green sweep means something.
go run -race ./cmd/pandora check -quick
go run ./cmd/pandora check -quick -inject >/dev/null

# Leakage scanner: AES scans clean on baseline / leaks the key under
# silent stores, eBPF leaks the kernel byte through the IMP, the
# speculation scenarios leak only with their predictor on (a squashed
# access still trips the taint observers), and the taint self-test
# passes both ways. The -inject leg breaks the ALU propagation rule and
# requires the no-under-tainting invariant to object.
go run -race ./cmd/pandora scan -quick
go run ./cmd/pandora scan -inject >/dev/null

# Observability: the Chrome export of the aes scenario is valid JSON
# agreeing with the simulated cycle count, and the sweep scenario's
# JSONL is byte-identical across repeats and worker counts {1,8} —
# under the race detector, since the sweep exercises the parallel
# engine.
go run -race ./cmd/pandora trace -quick

# Fault campaign: seeded structural faults at every site class under the
# supervision layer (watchdog + invariants + oracle + state diff +
# timing). The gate requires at least one detector to fire per site class
# and zero false positives on the no-fault control arm.
go run -race ./cmd/pandora fault -quick

# Leakage-contract gate: the crypto-kernel library (ChaCha20 quarter
# round, Poly1305 accumulation, bitslice and table-lookup AES SubBytes,
# Montgomery-ladder cswap) enumerated over the rotating mask schedule ×
# two cache geometries. The constant-time kernels must verdict clean at
# mask 0, the table-lookup AES must leak through cache addresses at mask
# 0, the known optimization-induced breaks (silent stores vs the cswap,
# computation simplification vs everything) must appear, and the report
# must be byte-identical at 1 worker and 8 — under the race detector,
# since the enumeration rides the parallel engine.
go run -race ./cmd/pandora contract -quick

# Job service: a real `pandora serve` instance on an ephemeral port,
# driven over HTTP — one job per job type, an identical resubmission
# must be a byte-identical cache hit without re-executing (the
# serve.executed counter is the probe), and a corrupted cache entry must
# fail its HMAC identity header and be transparently recomputed. Under
# the race detector: submissions, the worker pool, the event streams and
# the graceful drain all run concurrently.
go run -race ./cmd/pandora serve -quick

# Chaos gate: the same service under seeded fault injection. Every
# accepted job reaches a terminal state; first-attempt panics retry to
# success with attempt history in the stored result; deterministic
# failures cache and never retry; a deadline kills a runaway job through
# the pipeline's cooperative cancellation checkpoint; a simulated crash
# (journaled acceptance, no stored result) replays to a byte-identical
# result exactly once on restart; a tampered journal record fails its
# HMAC and is rejected; an open circuit sheds with 503 + Retry-After.
go run -race ./cmd/pandora serve -chaos-quick

# `pandora run` smoke: a tiny silent-store program (store 0 over 0 to a
# line a load has already brought in, retired behind a slow divide) runs
# with the obs JSONL event dump and the pipeview diagram. The SS-Load must
# return a match and the store must dequeue silently.
prog=$(mktemp)
out=$(mktemp)
cat > "$prog" <<'EOF'
	addi x1, x0, 0x100
	ld   x5, 0(x1)
	addi x9, x0, 1000
	addi x2, x0, 3
	div  x3, x9, x2
	sd   x0, 0(x1)
	halt
EOF
go run ./cmd/pandora run -machine silentstores -events -pipeview "$prog" > "$out"
grep -q '"kind":"ssload-return".*"detail":"match"' "$out"
grep -q '"kind":"sq-dequeue".*"detail":"silent"' "$out"
grep -q '^pipeview: cycles' "$out"
rm -f "$prog" "$out"

# Benchmark smoke test: the bench module's own tests run all four
# BENCHMARK.json workloads (contract, cycles, suite, serve) and the traced
# per-layer sweep at tiny size, with every golden and exact-count check —
# CONTRACT_table.json cells, diffcheck agreement, serve executed/hit/dedupe
# counts. It checks that the benchmark still builds and measures what it
# claims; throughput is compared by `bash bench/run.sh`, not here.
(cd bench && GOWORK=off GOPROXY=off GOFLAGS= go test ./...)

# Fuzz smoke: a few seconds per target, same oracle as the sweep.
go test ./internal/diffcheck -fuzz FuzzDifferential -fuzztime 5s -run '^$'
go test ./internal/diffcheck -fuzz FuzzCacheHierarchy -fuzztime 5s -run '^$'
go test ./internal/taint -fuzz FuzzTaint -fuzztime 5s -run '^$'
