#!/usr/bin/env sh
# The gate every PR must pass, runnable locally: `sh ci/check.sh`.
# Formatting, lints-as-errors (clippy, with the float-ordering, thread,
# clock, hash-order and lock rules of clippy.toml; unfulfilled `#[expect]`s
# fail too), a release build, the full workspace test suite (which holds
# the deadline-poll tests, the `Persist` round trips and the lint-config
# guards), and a fast MILP solver smoke check. The slow dynamic-analysis pass
# (TSan/Miri) lives in ci/sanitize.sh and runs nightly, non-blocking.
set -eux

cd "$(dirname "$0")/.."

cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings

cargo build --release --workspace
cargo test --workspace -q
# The LP engine against its exact oracles at release speed and 2048
# random cases per property (the vendored proptest honours
# PROPTEST_CASES), far deeper than the default run above.
PROPTEST_CASES=2048 cargo test --release -p milp-solver --test lp_oracle
# The LU layer against its old full-scan code, bit for bit, on bases of up
# to 140 rows, so the step masks span one to three 64-bit words.
PROPTEST_CASES=2048 cargo test --release -p milp-solver --lib -- \
    prop_lu_matches_the_full_scan_oracle
# The sub-ring path evaluator the same way: loaded orders against the old
# `Cycle` code, bounded against unbounded walks, and growth's insertion
# trials and refinement's relocation and reversal trials against a loaded
# trial order, all bit for bit; the construction
# units' bound intervals against recomputation under admitted bounds;
# growth units resumed from a round log against cold runs; and the
# pigeonhole search's running leaf scores against a member scan, on
# instances of more than 64 paths whose splitters come and go.
PROPTEST_CASES=2048 cargo test --release -p sring-core --lib -- \
    prop_evaluator_matches_the_cycle_oracle_bit_for_bit \
    prop_bounded_evaluation_is_exact \
    prop_insertion_trials_match_a_loaded_trial_bit_for_bit \
    prop_refinement_trials_match_a_loaded_trial_bit_for_bit \
    prop_unit_intervals_are_exact \
    prop_resumed_growth_matches_a_cold_run \
    prop_running_leaf_scores_match_the_member_scan
# The benchmark's own tests (perfbench is a separate package, outside the
# workspace, so the workspace run above does not reach them).
cargo test --release --offline --manifest-path perfbench/Cargo.toml
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

# Solver smoke check: solve the MWD assignment MILP five times (well
# under a second in all) and fail on any solver error, empty statistics
# or a counter that differs between runs. The JSON goes to a scratch path
# so the tracked BENCH_milp.json (full tracked run) is not clobbered by a
# partial one.
./target/release/milp_stats "${TMPDIR:-/tmp}/BENCH_milp_smoke.json" --benchmark mwd

# Optimality gate: the sparse revised simplex must prove the VOPD
# assignment MILP optimal within the default budgets (the headline
# capability of the factorized-basis work) in each of the five runs.
./target/release/milp_stats "${TMPDIR:-/tmp}/BENCH_milp_vopd.json" \
    --benchmark vopd --require-optimal

# Artifact-cache smoke check: the cached strategy sweep must record
# cache hits, match the uncached sweep bit-for-bit, and be >= 1.5x
# faster (the binary enforces all three and exits non-zero otherwise).
./target/release/pipeline_cache "${TMPDIR:-/tmp}/BENCH_pipeline_smoke.json"

# Persistent-store smoke check: populate an on-disk store, export it,
# corrupt one byte of the archive (the last record's trailing checksum),
# and import into a fresh store. The damaged record must be reported as
# skipped — never imported — and a synthesis over the partial store must
# still complete (served from disk where possible, recomputed elsewhere).
STORE_SMOKE="${TMPDIR:-/tmp}/sring_store_smoke"
rm -rf "$STORE_SMOKE"
mkdir -p "$STORE_SMOKE/src" "$STORE_SMOKE/dst"
./target/release/sring-cli synth --benchmark mwd --cache-dir "$STORE_SMOKE/src"
./target/release/sring-cli export --cache-dir "$STORE_SMOKE/src" \
    --archive "$STORE_SMOKE/artifacts.onoa"
# Corrupt the archive's final byte (the last record's trailing checksum)
# with no tooling beyond sh + dd. Truncating by one and appending an
# inverted byte guarantees the byte actually changes.
SIZE=$(wc -c < "$STORE_SMOKE/artifacts.onoa")
dd if="$STORE_SMOKE/artifacts.onoa" bs=1 count=$((SIZE - 1)) \
    of="$STORE_SMOKE/damaged.onoa" 2>/dev/null
printf '\252' >> "$STORE_SMOKE/damaged.onoa"
cmp -s "$STORE_SMOKE/artifacts.onoa" "$STORE_SMOKE/damaged.onoa" && exit 1
./target/release/sring-cli import --cache-dir "$STORE_SMOKE/dst" \
    --archive "$STORE_SMOKE/damaged.onoa" 2>&1 | tee "$STORE_SMOKE/import.log"
grep -q "1 skipped" "$STORE_SMOKE/import.log"
./target/release/sring-cli synth --benchmark mwd --cache-dir "$STORE_SMOKE/dst"
rm -rf "$STORE_SMOKE"

# Trace smoke check: a traced synthesis of every benchmark must emit a
# JSON report that parses, names the expected pipeline phases, and whose
# top-level span times sum to the recorded runtime within tolerance.
# Every run clusters (the memo phase holds the keying and lookups that no
# construction-unit span covers); the four benchmarks small enough for
# the exact MILP also name its model build and LP phases. D26, 8PM-32
# and 8PM-44 have more than 30 paths, so the heuristic assigns there.
COMMON_PHASES="synth synth/cluster synth/layout synth/assign synth/cluster/grow
    synth/cluster/refine synth/cluster/inter synth/cluster/memo"
MILP_PHASES="synth/assign/milp synth/assign/milp/build synth/assign/milp/lp"
for BENCH in mwd vopd mpeg 8pm-24 8pm-32 8pm-44 d26; do
    PHASES=$COMMON_PHASES
    case "$BENCH" in
        mwd|vopd|mpeg|8pm-24) PHASES="$PHASES $MILP_PHASES" ;;
    esac
    TRACE="${TMPDIR:-/tmp}/sring_trace_smoke_$BENCH.json"
    ./target/release/sring-cli synth --benchmark "$BENCH" --trace-json "$TRACE"
    set --
    for PHASE in $PHASES; do
        set -- "$@" --phase "$PHASE"
    done
    ./target/release/sring-cli trace-check "$TRACE" "$@"
done

# Delta smoke check: synthesize MWD, retarget one message, re-synthesize
# incrementally and verify the result is byte-identical to a from-scratch
# run of the edited graph (--verify makes the binary do the diff and exit
# non-zero on divergence).
./target/release/sring-cli resynth --benchmark mwd \
    --delta retarget:0,0,3 --verify
# The same on D26, whose time is nearly all clustering: the incremental
# run reuses the memo entries (and their L_max intervals) of the first,
# so this is the smoke that exercises interval reuse across runs.
./target/release/sring-cli resynth --benchmark d26 \
    --delta retarget:0,0,5 --delta scale:3,2.0 --verify

# Incremental re-synthesis smoke check: the 16-edit interactive mix on
# MWD/VOPD/MPEG must stay bit-identical and >= 5x faster incrementally
# (the binary enforces both and exits non-zero otherwise).
./target/release/delta_resynth "${TMPDIR:-/tmp}/BENCH_delta_smoke.json"

# Daemon smoke check: start sring-served on an ephemeral loopback port,
# submit one MWD job, prove a second identical job is answered from the
# shared cache (all four cacheable stages hit), and drain cleanly. The
# port file doubles as the readiness signal (written atomically after
# bind). The cache-hit probe rides the new --repeat path, so the two
# jobs also exercise single-connection reuse.
SERVED_SMOKE="${TMPDIR:-/tmp}/sring_served_smoke"
rm -rf "$SERVED_SMOKE"
mkdir -p "$SERVED_SMOKE"
./target/release/sring-served serve --addr 127.0.0.1:0 \
    --port-file "$SERVED_SMOKE/port" \
    --metrics "$SERVED_SMOKE/metrics.jsonl" &
SERVED_PID=$!
for _ in $(seq 1 100); do
    [ -f "$SERVED_SMOKE/port" ] && break
    sleep 0.1
done
[ -f "$SERVED_SMOKE/port" ]
SERVED_ADDR=$(cat "$SERVED_SMOKE/port")
./target/release/sring-served ping --addr "$SERVED_ADDR"
./target/release/sring-served submit --addr "$SERVED_ADDR" --benchmark mwd \
    --repeat 2 --require-cache-hits 4 --save-as base
# Delta-job round-trip: a bandwidth re-weight against the saved result
# must be served entirely from the cache warmed by the base job.
./target/release/sring-served submit --addr "$SERVED_ADDR" \
    --base base --delta scale:0,2.0 --require-cache-hits 4
./target/release/sring-served stats --addr "$SERVED_ADDR"
./target/release/sring-served shutdown --addr "$SERVED_ADDR"
wait "$SERVED_PID"
# Three finished jobs -> three metrics records.
[ "$(wc -l < "$SERVED_SMOKE/metrics.jsonl")" = "3" ]
rm -rf "$SERVED_SMOKE"
