#!/bin/sh
# CI gate: vet, build, and run the test suite under the race detector
# with -short, then in full without it. The paper-scale sweeps (keyrec
# -full, large fig6 sample counts) stay out of CI; they are exercised
# manually via `pandora <experiment> -full`.
#
# The suite carries the end-to-end gates: the scanner's scenario
# verdicts and taint self-test, the trace exports, the contract
# library's designed verdicts and worker-count byte identity, and the
# job service on an ephemeral port, happy path and chaos — submissions,
# the worker pool, event streams, replay and the graceful drain race
# each other under the detector here.
set -eux

go vet ./...
test -z "$(gofmt -l .)"
go build ./...
go test -race -short ./...

# The tests -short skips, run once without the race detector: the
# pipeline-vs-emulator differential under every optimization
# configuration, the contract table against CONTRACT_table.json, the long
# cache and prefetcher equivalence runs, the JIT differential fuzz and
# the BSAES plaintext sweep.
go test ./...

# Every Go benchmark (the root substrate micro-benchmarks and the
# pipeline's profiling entry points) runs once, so none can rot
# unnoticed; timing is compared by `bash bench/run.sh`, not here.
go test -run '^$' -bench . -benchtime 1x -short ./...

# The pipeline's ring helpers carry the invariant checker's marks and the
# idle-cycle skip's change count. Each must stay within the compiler's
# inlining budget: when some stopped inlining, the cycle loop ran about
# 25% slower.
test "$(go build -gcflags=-m ./internal/pipeline 2>&1 | grep -cE 'can inline \(\*Machine\)\.(robPush|robPopHead|markDispatched|markExecuting|schedToExec|execDone|clearSched|unref)$')" -eq 8

# Stats encapsulation: no package writes through another package's
# exported Stats value — counters are owned where they are declared and
# read through getters or obs.Registry snapshots. -v lists the owning
# packages (internal/serve's service counters are among them).
go run ./tools/statscheck -v internal cmd

# Differential oracle: pipeline vs emulator over a bounded seeded corpus,
# all optimization-toggle extremes plus rotating coverage, invariant
# checks on. The 9-bit mask space includes the speculation toggles
# (wrong-path fetch, StLF predictor) and the stride schedule guarantees
# the 64-program corpus exercises them; squash recovery races under the race
# detector. The -inject leg proves the oracle can actually catch a
# miscompiled pipeline, so a green sweep means something. Its report,
# minimized repro included, must not depend on the worker count: workers
# reuse one simulator across cases, and a reset that missed some state
# would change a verdict with the case-to-worker mapping.
go run -race ./cmd/pandora check -n 64 -masks 1
inject1=$(go run ./cmd/pandora check -n 64 -masks 1 -inject -parallel 1)
inject2=$(go run ./cmd/pandora check -n 64 -masks 1 -inject -parallel 2)
test "$inject1" = "$inject2"

# Leakage scanner self-test: the -inject leg breaks the ALU propagation
# rule and requires the no-under-tainting invariant to object.
go run ./cmd/pandora scan -inject >/dev/null

# Fault campaign: seeded structural faults at every site class under the
# supervision layer (watchdog + invariants + oracle + state diff +
# timing). The gate requires at least one detector to fire per site class
# and zero false positives on the no-fault control arm.
go run -race ./cmd/pandora fault -trials 4

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
# bench/ is its own module, so the root `go vet ./...` never sees it and
# its `go test` runs only vet's default subset.
(cd bench && GOWORK=off GOPROXY=off GOFLAGS= go vet ./...)

# Fuzz smoke: a few seconds per target. Minimizing a new input is capped
# at 100 executions: left at its default, the engine spent most of a 5 s
# window minimizing the first inputs it found. The simulator targets share the
# sweep's oracle; FuzzSchedulerEquivalence runs each decoded program under
# the linear reference scheduler and the event-driven one and requires an
# identical Result; FuzzIncrementalInvariants runs a generated program
# under any toggle mask with the incremental ROB and readiness checks
# cross-checked against the full walk every cycle;
# FuzzResetEquivalence runs one generated program, sometimes cut short,
# then resets the machine to another program's mask and cache variant,
# and again under the very Config value the first ran with, and requires
# runs identical to a new machine's (the predictor and reuse tables are
# the machine's, so Reset clears them); FuzzIMPEquivalence runs
# the indirect-memory prefetcher's stream ring beside the pointer-slice
# table it replaced over stride runs, Prime+Probe sweeps, chases, writes
# and resets, and requires identical stats, trace lines, level mappings
# and prefetches after every access; FuzzCacheEquivalence drives the
# cache hierarchy beside the [][]line implementation its flat way arrays
# replaced, under LRU, TreePLRU and Random, and requires identical
# results, events, contents, replacement state and check outcomes after
# every operation; the last seven cover
# bytes the program reads back — the secret-region parser (typed
# *SecretError rejections, accepted regions round-trip and label at most
# MaxSecretLen bytes), the journal reader (no panic, typed errors, every
# returned record re-verifies), the machine-spec parser (typed *SpecError
# rejections, FormatMachineSpec round trip), the assembler (typed
# *asm.Error rejections, every accepted secret region labelable),
# serve's cached-failure reader (no panic, agrees with a full decode on
# every stored result body) and serve's store entries (arbitrary or
# mutated bytes at an entry's path are a miss or a rejection that
# deletes them, never a hit unless genuine) and serve's POST /v1/jobs
# body (a typed refusal, or an accepted spec whose canonical form is a
# fixed point with the same key; the job is never executed).
go test ./internal/diffcheck -fuzz FuzzDifferential -fuzztime 5s -fuzzminimizetime 100x -run '^$'
go test ./internal/diffcheck -fuzz FuzzSchedulerEquivalence -fuzztime 5s -fuzzminimizetime 100x -run '^$'
go test ./internal/diffcheck -fuzz FuzzCacheHierarchy -fuzztime 5s -fuzzminimizetime 100x -run '^$'
go test ./internal/pipeline -fuzz FuzzIncrementalInvariants -fuzztime 5s -fuzzminimizetime 100x -run '^$'
go test ./internal/pipeline -fuzz FuzzResetEquivalence -fuzztime 5s -fuzzminimizetime 100x -run '^$'
go test ./internal/dmp -fuzz FuzzIMPEquivalence -fuzztime 5s -fuzzminimizetime 100x -run '^$'
go test ./internal/cache -fuzz FuzzCacheEquivalence -fuzztime 5s -fuzzminimizetime 100x -run '^$'
go test ./internal/taint -fuzz FuzzTaint -fuzztime 5s -fuzzminimizetime 100x -run '^$'
go test ./internal/taint -fuzz FuzzParseSecret -fuzztime 5s -fuzzminimizetime 100x -run '^$'
go test ./internal/journal -fuzz FuzzRead -fuzztime 5s -fuzzminimizetime 100x -run '^$'
go test ./internal/core -fuzz FuzzParseMachineSpec -fuzztime 5s -fuzzminimizetime 100x -run '^$'
go test ./internal/asm -fuzz FuzzAssembleUnit -fuzztime 5s -fuzzminimizetime 100x -run '^$'
go test ./internal/serve -fuzz FuzzCachedError -fuzztime 5s -fuzzminimizetime 100x -run '^$'
go test ./internal/serve -fuzz FuzzStoreEntry -fuzztime 5s -fuzzminimizetime 100x -run '^$'
go test ./internal/serve -fuzz FuzzSubmit -fuzztime 5s -fuzzminimizetime 100x -run '^$'
