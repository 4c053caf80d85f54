#!/usr/bin/env bash
# One-shot static analysis entry point. CI runs this script verbatim;
# run it locally before sending a change.
#
#   1. go vet            — the stock toolchain checks
#   2. radivvet          — the engine's contract analyzers
#                          (caller-owned results — exported functions
#                          AND methods, so the planner's Plan entry
#                          points are covered — snapshot and worker
#                          quiescence, panic prefixes); see
#                          internal/analysis. The batch validity rule
#                          has no analyzer: go test -race checks it
#                          (rel.Batch.Reset poisons under -race)
#   3. fixtures          — the analyzers' own must-flag/must-not-flag
#                          fixture suites (testdata is invisible to
#                          go list patterns, so radivvet alone never
#                          exercises them)
#   4. layering          — the algebra packages (ra, sa, xra) hold the
#                          paper's semantics only: they must not depend
#                          on the executor's governor (internal/exec),
#                          and no non-test file in them may declare a
#                          batch cursor (a NextBatch method); the
#                          executor's operators live in internal/plan
#   5. gofmt             — formatting must be clean, testdata included
#   6. golangci-lint     — curated correctness linters (.golangci.yml)
#
# golangci-lint is optional locally (the sandbox image does not ship
# it) but mandatory in CI: export LINT_REQUIRE_GOLANGCI=1 to make a
# missing binary fatal.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== radivvet =="
go run ./cmd/radivvet ./...

echo "== analyzer fixtures =="
go test -count=1 ./internal/analysis/...

echo "== layering =="
deps=$(go list -deps ./internal/ra ./internal/sa ./internal/xra)
if grep -qx 'radiv/internal/exec' <<<"$deps"; then
	echo "internal/ra, internal/sa or internal/xra depends on radiv/internal/exec" >&2
	exit 1
fi
cursors=$(grep -lE '^func \([^)]*\) NextBatch\(' internal/ra/*.go internal/sa/*.go internal/xra/*.go | grep -v '_test\.go$' || true)
if [ -n "$cursors" ]; then
	echo "batch cursors belong in internal/plan, not in the algebra packages:" >&2
	echo "$cursors" >&2
	exit 1
fi

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== golangci-lint =="
if command -v golangci-lint >/dev/null 2>&1; then
	golangci-lint run
elif [ "${LINT_REQUIRE_GOLANGCI:-0}" = "1" ]; then
	echo "golangci-lint is required but not installed" >&2
	exit 1
else
	echo "golangci-lint not installed; skipped (CI enforces it)" >&2
fi

echo "lint: all clean"
