#!/usr/bin/env bash
# Regenerates every pinned artifact from the code in this checkout: the
# golden metrics dumps (testdata/metrics/*), BENCH_0.json, BENCH_1.json and
# AUDIT_2.json. All four are deterministic — same commit, same bytes — so
# `git diff --exit-code` afterwards says whether the pins still hold; CI
# runs exactly that. A change that moves them on purpose commits the result
# and states old -> new in CHANGES.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
go test -count=1 -run '^TestGoldenMetrics$' -update .
go run ./cmd/proram-bench -exp bench0 -bench-out BENCH_0.json > /dev/null
go run ./cmd/proram-bench -exp bench1 -bench-out BENCH_1.json > /dev/null
go run ./cmd/proram-bench -exp audit2 -audit-out AUDIT_2.json > /dev/null
