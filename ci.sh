#!/bin/sh
# CI gate: vet, build, and run the full test suite under the race
# detector. -short keeps the paper-scale sweeps (keyrec -full, large
# fig6 sample counts) out of CI; they are exercised manually via
# `pandora <experiment> -full` or the single-shot benchmarks.
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
# miscompiled pipeline, so a green sweep means something.
go run -race ./cmd/pandora check -n 64 -masks 1
go run ./cmd/pandora check -n 64 -masks 1 -inject >/dev/null

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

# Fuzz smoke: a few seconds per target. The simulator targets share the
# sweep's oracle; FuzzSchedulerEquivalence runs each decoded program under
# the linear reference scheduler and the event-driven one and requires an
# identical Result; FuzzIncrementalInvariants runs a generated program
# under any toggle mask with the incremental ROB and readiness checks
# cross-checked against the full walk every cycle; the last six cover
# bytes the program reads back — the secret-region parser (typed
# *SecretError rejections, accepted regions round-trip and label at most
# MaxSecretLen bytes), the journal reader (no panic, typed errors, every
# returned record re-verifies), the machine-spec parser (typed *SpecError
# rejections, FormatMachineSpec round trip), the assembler (typed
# *asm.Error rejections, every accepted secret region labelable),
# serve's cached-failure reader (no panic, agrees with a full decode on
# every stored result body) and serve's store entries (arbitrary or
# mutated bytes at an entry's path are a miss or a rejection that
# deletes them, never a hit unless genuine).
go test ./internal/diffcheck -fuzz FuzzDifferential -fuzztime 5s -run '^$'
go test ./internal/diffcheck -fuzz FuzzSchedulerEquivalence -fuzztime 5s -run '^$'
go test ./internal/diffcheck -fuzz FuzzCacheHierarchy -fuzztime 5s -run '^$'
go test ./internal/pipeline -fuzz FuzzIncrementalInvariants -fuzztime 5s -run '^$'
go test ./internal/taint -fuzz FuzzTaint -fuzztime 5s -run '^$'
go test ./internal/taint -fuzz FuzzParseSecret -fuzztime 5s -run '^$'
go test ./internal/journal -fuzz FuzzRead -fuzztime 5s -run '^$'
go test ./internal/core -fuzz FuzzParseMachineSpec -fuzztime 5s -run '^$'
go test ./internal/asm -fuzz FuzzAssembleUnit -fuzztime 5s -run '^$'
go test ./internal/serve -fuzz FuzzCachedError -fuzztime 5s -run '^$'
go test ./internal/serve -fuzz FuzzStoreEntry -fuzztime 5s -run '^$'
