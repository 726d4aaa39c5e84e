#!/usr/bin/env bash
# check.sh — the one-command tier-1+ gate.
#
# Runs, in order:
#   1. gofmt -l           formatting (whole tree, fixtures included)
#   2. go vet ./...       stdlib vet analyzers
#   3. go build ./...     everything compiles
#   4. nbalint ./...      framework determinism & invariant lint (cmd/nbalint):
#                         per-file rules plus the interprocedural detflow /
#                         aliasflow / hotalloc / sharedstate rules over one
#                         shared type-checked module. Runs with -audit-allows
#                         (stale or misspelled //nbalint:allow escapes fail
#                         the gate), a per-rule wall-clock budget, and
#                         -format json so the machine-readable findings /
#                         allow counts / timings land in an artifact file
#                         ($NBALINT_JSON, default nbalint.json under mktemp)
#   5. go test -race ...  full test suite under the race detector
#   6. fuzz smoke         a few seconds per fuzz target (conflang round-trip,
#                         packet header parsing) to catch shallow regressions
#   7. nbatrace self-check every scenario in internal/bench (nbatrace
#                         scenarios: the plain golden runs plus the armed ones
#                         with a GPU outage, overload control under a load
#                         burst, a silent-corruption window with the sentinel
#                         armed, co-resident tenants and tenant churn) is
#                         recorded twice and must diff to zero divergence
#                         (dynamic determinism gate)
#   8. chaos smoke        fixed-seed nbachaos sweeps (every app, a couple of
#                         seeds; then 2-tenant co-residency with
#                         tenant-targeted fault plans; then -reconfig cases
#                         layering random control-plane churn over the fault
#                         plans): random-but-seeded fault plans must pass the
#                         invariant oracle with matching digests across the
#                         doubled runs; plus a fixed corruption case replayed
#                         both contained (sentinel sampling) and leaking
#                         (sampling disarmed), exercising the replay
#                         exit-code contract (0/1/2)
#   9. parallel equiv     the same sweeps at -parallel 1 and -parallel 8 must
#                         print byte-identical combined digests (internal/par
#                         determinism contract; the tenant sweep also folds
#                         every per-tenant sub-digest into the combined one)
#
# The race run doubles as the regression tripwire for future parallel-worker
# PRs: the engine is single-threaded by design, so any data race is new code
# breaking the simulation contract.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> nbalint -audit-allows ./... (interprocedural rules, budget, json artifact)"
lint_json="${NBALINT_JSON:-$(mktemp -d)/nbalint.json}"
# One invocation serves as gate and artifact: the module is type-checked once
# and shared across all rules, -budget trips on any single rule regressing
# past 10s of wall clock (the whole suite runs in well under one), and the
# JSON document (findings with source→sink paths, per-rule allow counts,
# per-rule timings) is kept for inspection even though the gate passed.
go run ./cmd/nbalint -audit-allows -timing -budget 10s -format json ./... > "$lint_json"
echo "nbalint: json artifact at $lint_json"

echo "==> go test -race ./..."
go test -race ./...

echo "==> fuzz smoke (a few seconds per target)"
# Each -fuzz invocation takes exactly one target, so one run per regex.
go test -fuzz='^FuzzParsePrint$' -fuzztime=5s -run '^$' ./internal/conflang
go test -fuzz='^FuzzHeaderParse$' -fuzztime=5s -run '^$' ./internal/packet
go test -fuzz='^FuzzBuildUDP4$' -fuzztime=5s -run '^$' ./internal/packet

echo "==> nbatrace determinism self-check"
tracedir=$(mktemp -d)
trap 'rm -rf "$tracedir"' EXIT
go build -o "$tracedir/nbatrace" ./cmd/nbatrace
scenarios=$("$tracedir/nbatrace" scenarios)
for sc in $scenarios; do
    "$tracedir/nbatrace" record -scenario "$sc" -o "$tracedir/a.jsonl" >/dev/null
    "$tracedir/nbatrace" record -scenario "$sc" -o "$tracedir/b.jsonl" >/dev/null
    echo -n "$sc: "
    "$tracedir/nbatrace" diff "$tracedir/a.jsonl" "$tracedir/b.jsonl"
done

echo "==> chaos smoke (fixed-seed fault sweep under the invariant oracle)"
go run ./cmd/nbachaos sweep -seeds 2 -base 1

echo "==> chaos tenant smoke (2 co-resident tenants per case, tenant-targeted faults)"
go run ./cmd/nbachaos sweep -seeds 2 -base 1 -tenants 2

echo "==> chaos reconfig smoke (control-plane churn plans on top of fault plans)"
go run ./cmd/nbachaos sweep -seeds 2 -base 1 -reconfig

echo "==> corruption chaos smoke (sentinel contains the window; disarmed sampling must trip corrupt.leak)"
# One fixed corruption case, both ways through the replay exit-code contract
# (0 = clean, 1 = violation reproduced, 2 = usage/load error): with the
# sentinel sampling (the sweep default) the window is contained and conserved;
# with sampling disarmed the same plan must leak tainted frames to TX and be
# caught by the corrupt.leak oracle.
cat > "$tracedir/corrupt-armed.json" <<'JSON'
{
  "app": "ipv4",
  "seed": 3,
  "events": [
    {"at_ps": 300000000, "kind": "device.corrupt", "corrupt_prob": 0.5, "flip_pattern": 255},
    {"at_ps": 2000000000, "kind": "corrupt.recover"}
  ]
}
JSON
sed 's/"seed": 3,/"seed": 3,\n  "disarm_sampling": true,/' \
    "$tracedir/corrupt-armed.json" > "$tracedir/corrupt-leak.json"
go run ./cmd/nbachaos replay "$tracedir/corrupt-armed.json"
rc=0
go run ./cmd/nbachaos replay "$tracedir/corrupt-leak.json" || rc=$?
if [[ "$rc" != 1 ]]; then
    echo "disarmed corruption replay exited $rc, want 1 (corrupt.leak violation)" >&2
    exit 1
fi
echo "corrupt.leak reproduced with sampling disarmed (replay exit 1, as contracted)"

echo "==> chaos parallel equivalence (same sweep, 8 workers, byte-identical digest)"
d1=$(go run ./cmd/nbachaos sweep -seeds 2 -base 1 -parallel 1 -digest-only)
d8=$(go run ./cmd/nbachaos sweep -seeds 2 -base 1 -parallel 8 -digest-only)
if [[ "$d1" != "$d8" ]]; then
    echo "chaos sweep digest diverged across parallelism: serial $d1 vs parallel-8 $d8" >&2
    exit 1
fi
echo "chaos digest stable at parallelism 1 and 8: $d1"

echo "==> chaos tenant parallel equivalence (per-tenant digests fold into the combined digest)"
t1=$(go run ./cmd/nbachaos sweep -seeds 2 -base 1 -tenants 2 -parallel 1 -digest-only)
t8=$(go run ./cmd/nbachaos sweep -seeds 2 -base 1 -tenants 2 -parallel 8 -digest-only)
if [[ "$t1" != "$t8" ]]; then
    echo "tenant chaos sweep digest diverged across parallelism: serial $t1 vs parallel-8 $t8" >&2
    exit 1
fi
echo "tenant chaos digest stable at parallelism 1 and 8: $t1"

echo "check.sh: all gates passed"
