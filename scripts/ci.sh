#!/usr/bin/env sh
# Full local CI: format check, lints, release build, tests.
#
# The workspace builds fully offline (all third-party dependencies are
# vendored under crates/compat/), so network access is never required —
# CARGO_NET_OFFLINE hard-fails any accidental registry round-trip.
set -eu

cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --offline --release --workspace

# API docs: a broken intra-doc link, or a public doc that links a private
# item, is an error.
echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

# Static invariants: the token-level determinism & panic-safety catalogue
# (D1/D2/D3/P1/C1) plus the interprocedural analyses — nondeterminism
# taint reaching Stage::process/journal/digest sinks (T1) and fingerprint
# field coverage (F1). See DESIGN.md "Static invariants" and "Analyzer".
# Exit codes gate the run: 1 = findings, 3 = parse/IO errors (the tree
# could not be fully analyzed — treated as failure, not as clean). Every
# run analyzes every file; nothing is cached between runs.
echo "==> coachlm-lint (determinism, panic-safety & taint pass)"
cargo run --offline -p coachlm-lint --release -- --format json --out results/lint.json

echo "==> cargo test"
cargo test --offline --workspace -q

# Kernel reference tests, run harder: every `*reference*` test in the text,
# judge, lm and expert crates compares a rewritten kernel, or the expert QC
# loop, with the body it replaced (kept under #[cfg(test)]), byte for byte.
# Release mode affords 1024 cases per property instead of the default 64.
echo "==> kernel reference tests (release, PROPTEST_CASES=1024)"
PROPTEST_CASES=1024 cargo test --offline --release -q \
    -p coachlm-text -p coachlm-judge -p coachlm-lm -p coachlm-expert reference

# coachbench (BENCHMARK.json) is a package of its own, outside the
# workspace, so the steps above never build it; it calls the pipeline's
# kernels directly, so a kernel change can break it unseen.
echo "==> coachbench (fmt, clippy, tests)"
cargo fmt --check --manifest-path coachbench/Cargo.toml
cargo clippy --offline --all-targets --manifest-path coachbench/Cargo.toml -- -D warnings
cargo test --offline -q --manifest-path coachbench/Cargo.toml

# Fault matrix: one chaos cell per fault seed. Each cell checks the
# partition and thread-invariance properties of the fault-injection layer
# under a different deterministic fault pattern.
echo "==> fault matrix (3 fault seeds)"
for seed in 11 29 53; do
    echo "   -> seed=$seed"
    COACHLM_FAULT_SEED=$seed \
        cargo test --offline -q --test fault_injection fault_matrix_cell
done

# Crash matrix: one cell per (seed, kill point). Each cell writes a
# journaled run, truncates the journal at the kill point, and checks that
# the resumed run is digest-identical to an uninterrupted one at several
# thread counts — the crash-consistency contract of the write-ahead journal.
echo "==> crash matrix (3 seeds x 3 kill points)"
for seed in 11 29 53; do
    for kill in 25 50 90; do
        echo "   -> seed=$seed kill=$kill%"
        COACHLM_CRASH_SEED=$seed COACHLM_KILL_POINT=$kill \
            cargo test --offline -q --test crash_resume crash_matrix_cell
    done
done

# Streaming matrix: one cell per (seed, thread count, queue capacity).
# Each cell runs every ported chain through the streaming core with
# faults active, over batch and sustained feeds, with and without the
# epoch gate: with a breaker (no chunk of an epoch starts before the
# previous epoch has finished) and without one (lanes never wait). It
# checks digest equality against the single-threaded reference. Queue
# capacity 1 is where the gate's no-deadlock argument is tightest. Thread
# count and queue depth are performance knobs only; any divergence here
# is a determinism bug.
echo "==> streaming matrix (3 seeds x 2 thread counts x 3 queue capacities)"
for seed in 11 29 53; do
    for threads in 2 8; do
        for queue in 1 16 256; do
            echo "   -> seed=$seed threads=$threads queue=$queue"
            COACHLM_STREAM_SEED=$seed COACHLM_THREADS=$threads COACHLM_QUEUE=$queue \
                cargo test --offline -q --test stream_equivalence stream_matrix_cell
        done
    done
done

# Cache/shard matrix: one cell per (seed, fan-out, duplicate skew). The
# fan-out (COACHLM_SHARDS) is the lane count of one executor, the
# in-process way to scale out. Each cell runs a Zipfian-duplicated
# workload through the revision cache at 1, 4 and the cell's lane count,
# and checks digest equality against the uncached single-threaded
# reference and equal cache tallies across lane counts. The cache and the
# fan-out are deployment knobs only; any divergence here is a determinism
# bug.
echo "==> cache/shard matrix (2 seeds x 2 fan-outs x 2 skews)"
for seed in 11 53; do
    for shards in 2 8; do
        for skew in 0.4 1.3; do
            echo "   -> seed=$seed shards=$shards skew=$skew"
            COACHLM_CACHE_SEED=$seed COACHLM_SHARDS=$shards COACHLM_SKEW=$skew \
                cargo test --offline -q --test cache_shard cache_matrix_cell
        done
    done
done

# Tournament matrix: one cell per (seed, thread count). Each cell runs
# every registered strategy under chaos at the cell's executor config,
# checks digest equality against the single-threaded reference, and
# verifies the debiased tournament matrix over the zoo's
# outputs is identical to the reference's. Strategy pipelines — including
# the looping Self-Review and auto-evol stages — must be execution-config
# invariant end to end.
echo "==> tournament matrix (2 seeds x 2 thread counts)"
for seed in 11 53; do
    for threads in 2 8; do
        echo "   -> seed=$seed threads=$threads"
        COACHLM_TOURN_SEED=$seed COACHLM_TOURN_THREADS=$threads \
            cargo test --offline -q --test strategy_zoo tournament_matrix_cell
    done
done

# Supervise matrix: one cell per (seed, shard count, kill point). Each
# cell runs the chaos chain with every shard in its own worker process —
# killing one worker early (clean frame boundary on the first frame),
# late (torn mid-frame write near the end of its partition), or not at
# all — and checks the merged digest against the unsharded in-process
# journaled run, with restart counters proving the kill actually landed.
echo "==> supervise matrix (2 seeds x 2 shard counts x 3 kill points)"
for seed in 11 53; do
    for shards in 2 4; do
        for kill in early late none; do
            echo "   -> seed=$seed shards=$shards kill=$kill"
            COACHLM_SUPERVISE_SEED=$seed COACHLM_SUPERVISE_SHARDS=$shards COACHLM_SUPERVISE_KILL=$kill \
                cargo test --offline -q --test supervise_chaos
        done
    done
done

# Optional: regenerate BENCH_6.json from the Criterion suite. Off by
# default because benches dominate CI wall-clock; enable with COACHLM_BENCH=1.
if [ "${COACHLM_BENCH:-0}" = "1" ]; then
    echo "==> scripts/bench.sh"
    scripts/bench.sh
fi

echo "==> ci OK"
