#!/bin/sh
# check.sh — the single local/CI verification gate (tier-1+).
#
# Runs, in order: formatting, vet, build, the project's own invariant
# linter (cmd/pbolint), the full test suite under the race detector, a
# named re-run of the bit-identity property tests for the parallel
# linear-algebra paths (still under -race), a named re-run of the
# kill-and-resume determinism tests for the session/serving stack (still
# under -race), the hot-path allocation-regression tests without the
# race detector (alloc counts are only meaningful uninstrumented), a
# single-iteration pass over every benchmark so bench code cannot rot
# uncompiled, and one fast bench.sh pass that enforces the
# zero-allocation budgets of DESIGN.md §9. Every named stage first checks
# that each name in its -run list still matches a test, so a renamed or
# deleted test fails the gate instead of silently dropping out of it. Any
# failure stops the gate with a nonzero exit.
#
# Usage: ./scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

# require_tests LIST PKG...: fail unless every |-separated name in the -run
# regexp LIST matches at least one test in the packages. `go test -run`
# reports "ok ... [no tests to run]" for a name that matches nothing, so
# without this a stale name would drop out of a named stage unnoticed.
require_tests() {
    names=$1
    shift
    listed=$(go test -list '.*' "$@" | grep -E '^(Test|Benchmark|Fuzz|Example)') || true
    for name in $(echo "$names" | tr '|' ' '); do
        if ! echo "$listed" | grep -Eq -- "$name"; then
            echo "check.sh: -run name $name matches no test in $*" >&2
            exit 1
        fi
    done
}

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: needs formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== pbolint ./..."
go run ./cmd/pbolint -json ./... > pbolint_report.json
go run ./cmd/pbolint ./...

echo "== pbolint suppression budget"
# The waiver surface may only shrink without a deliberate budget bump:
# every //lint:ignore directive is inventoried, and the count is held
# against the checked-in baseline. Growing it means editing
# scripts/lint_budget.txt in the same change, with the new waiver's
# reason in the diff.
budget=$(cat scripts/lint_budget.txt)
live=$(go run ./cmd/pbolint -suppressions ./... | wc -l | tr -d ' ')
if [ "$live" -gt "$budget" ]; then
    echo "pbolint: $live suppressions exceed the budget of $budget;" >&2
    echo "  fix the findings or bump scripts/lint_budget.txt deliberately" >&2
    go run ./cmd/pbolint -suppressions ./... >&2
    exit 1
fi
echo "suppressions: $live of $budget budgeted"

echo "== go test -race ./..."
go test -race ./...

echo "== bit-identity property tests under -race"
# Redundant with the full -race sweep above, but named explicitly so the
# parallel linear-algebra contracts cannot be silently dropped from the
# gate: the parallel k★ fill vs serial, the PredictJoint parallel branch
# vs serial, the ExtendCols fast-path regression and path agreement, and
# the unbounded-pool goroutine clamp.
run='TestEvalRowAuto|TestPredictJointParallelBitIdentity|TestExtendFreshFactorSkipsTransposeBuild|TestExtendColsMatchesExtend|TestExtendPathsAgree|TestEvalBatchUnboundedClampsGoroutines'
require_tests "$run" ./internal/mat/ ./internal/kernel/ ./internal/gp/ ./internal/parallel/
go test -race -run "$run" -count 1 ./internal/mat/ ./internal/kernel/ ./internal/gp/ ./internal/parallel/

echo "== fit-path bit-identity property tests under -race"
# The fit-path scaling contracts (DESIGN.md §9): packed factorize/solve/
# inverse/ExtendCols vs the dense reference DAG, prefix inheritance along
# fantasy chains, in-place refactorization, the banded parallel Gram /
# gradient / inverse fills vs serial at GOMAXPROCS 1 and 8, and pooled
# fit-workspace reuse.
run='TestPackedFactorizeMatchesDense|TestPackedSolvesMatchDense|TestPackedSolveMatAndInverseMatchDense|TestPackedExtendMatchesDenseReference|TestInheritedPrefixSolveBitIdentity|TestInverseIntoParallelBitIdentity|TestRefactorizeMatchesNew|TestGramIntoMatchesPerPair|TestGramIntoParallelBitIdentity|TestLMLGradBandedBitIdentity|TestFitWorkspaceReuseBitIdentity|TestFantasyChainSharesPrefix'
require_tests "$run" ./internal/mat/ ./internal/gp/
go test -race -run "$run" -count 1 ./internal/mat/ ./internal/gp/

echo "== kill-and-resume determinism under -race"
# Named explicitly so the crash-safe serving contracts cannot be silently
# dropped from the gate: checkpoint/resume bit-identity at the ask/tell
# core, per-strategy resume, the session ledger with partial tells and
# corrupt-snapshot fallback, the concurrent HTTP e2e, and the real
# SIGTERM drain-and-resume lifecycle of cmd/pboserver. The async chain is
# pinned at every layer — core LIFO replay, the portfolio bandit's
# checkpointed arm statistics, the session ledger with fantasized points
# in flight (plus its worker-pool goroutine-leak check), and the HTTP
# kill-and-resume with metrics bit-identity. The migration protocol rides
# in the same group: the kill-migrate-resume chain with Result AND
# Metrics bit-identity, the export/import edge contract, the two-process
# pboserver migration e2e, and the cross-version golden-frame decode
# matrix that keeps v1/v2 snapshots resumable. The scenario engine pins
# its two contracts here too: the rolling-horizon golden trace (same seed
# → bit-identical year schedule and revenue) and the fleet driver's
# mid-day kill-and-resume against a live in-process pboserver.
run='TestAskTellCheckpointResume|TestStrategyKillAndResume|TestSessionKillAndResume|TestSessionResumeSurvivesCorruptNewestSnapshot|TestServerConcurrentSessions|TestServerKillAndResume|TestServerSIGTERMDrainAndResume|TestAsyncKillAndResume|TestPortfolioAsyncKillAndResume|TestSessionAsyncKillAndResume|TestSessionAsyncWorkerPoolDrains|TestServerAsyncKillAndResume|TestServerMigrateBitIdentity|TestServerExportImportLifecycle|TestServerMigrateTwoProcesses|TestGoldenFramesCrossVersionDecode|TestResumeFailsLoudOnFutureVersion|TestScenarioGoldenTraceDeterminism|TestFleetKillAndResume'
require_tests "$run" ./internal/core/ ./internal/strategy/ ./internal/session/ ./internal/serve/ ./internal/scenario/ ./cmd/pboserver/
go test -race -run "$run" -count 1 ./internal/core/ ./internal/strategy/ ./internal/session/ ./internal/serve/ ./internal/scenario/ ./cmd/pboserver/

echo "== alloc-regression tests (no race detector)"
require_tests 'Alloc' ./internal/mat/ ./internal/kernel/ ./internal/gp/ ./internal/acq/ ./internal/scenario/
go test -run 'Alloc' ./internal/mat/ ./internal/kernel/ ./internal/gp/ ./internal/acq/ ./internal/scenario/

echo "== benchmarks compile and run once"
go test -run '^$' -bench . -benchtime 1x ./...

echo "== bench.sh alloc budgets, linalg, snapshot, fit, async and scenario evidence"
benchjson=$(mktemp)
benchlinjson=$(mktemp)
benchsnapjson=$(mktemp)
benchfitjson=$(mktemp)
benchasyncjson=$(mktemp)
benchscenjson=$(mktemp)
BENCHTIME=100x BENCHTIME_LINALG=1x BENCHTIME_SNAPSHOT=1x BENCHTIME_FIT=1x BENCHTIME_ASYNC=1x BENCHTIME_SCENARIO=1x \
    OUT="$benchjson" OUT_LINALG="$benchlinjson" OUT_SNAPSHOT="$benchsnapjson" OUT_FIT="$benchfitjson" OUT_ASYNC="$benchasyncjson" OUT_SCENARIO="$benchscenjson" \
    ./scripts/bench.sh -check
rm -f "$benchjson" "$benchlinjson" "$benchsnapjson" "$benchfitjson" "$benchasyncjson" "$benchscenjson"

echo "check.sh: all gates passed"
