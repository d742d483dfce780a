#!/usr/bin/env sh
# Pre-PR gate: the tier-1 build/test pass plus formatting, lint and
# rustdoc, all fully offline. Every tracked Cargo.toml must resolve
# without the network, so no crate with crates.io dependencies can
# creep back in.
#
#   sh scripts/verify.sh
#
# Every step must pass; the script stops at the first failure.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo metadata --offline (every tracked Cargo.toml resolves offline)"
for m in $(git ls-files 'Cargo.toml' '*/Cargo.toml'); do
    cargo metadata --offline --format-version 1 --manifest-path "$m" >/dev/null
done

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test -q --workspace (all crates)"
cargo test -q --workspace

echo "==> benchmark tests (own workspace; smoke iterations pin every workload's verdicts)"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> examples (each one asserts the story it prints)"
for ex in examples/*.rs; do
    cargo run --quiet --release --example "$(basename "$ex" .rs)" > /dev/null
done

echo "==> parallel equivalence (1 vs 2 vs 8 threads)"
cargo test -q -p ccsql-mc --test parallel

echo "==> symmetry reduction (canon laws + on/off verdict equivalence at 2-3 nodes, 1/2/8 threads)"
cargo test -q -p ccsql-mc --test canon
cargo test -q -p ccsql-mc --test symmetry

echo "==> out-of-core determinism (shards x threads x mem-budget matrix, resident peak under budget, spill cleanup)"
cargo test -q -p ccsql-mc --test out_of_core

WORK_DIR="$(mktemp -d)"
trap 'rm -rf "$WORK_DIR"' EXIT

echo "==> forced-spill quick gate (in-memory vs out-of-core, byte-for-byte)"
# Same space, three storage shapes: fully resident, 4-shard spilled,
# 16-shard spilled. After blanking the wall-clock token and dropping
# the (intentionally nondeterministic) out-of-core stats line, all
# three outputs must be byte-identical.
cargo run --quiet --release -p ccsql-cli -- mc --nodes 3 --quota 2 --no-symmetry \
    --threads 2 > "$WORK_DIR/mc_res.txt"
cargo run --quiet --release -p ccsql-cli -- mc --nodes 3 --quota 2 --no-symmetry \
    --threads 2 --shards 4 --mem-budget 64K > "$WORK_DIR/mc_ooc1.txt"
cargo run --quiet --release -p ccsql-cli -- mc --nodes 3 --quota 2 --no-symmetry \
    --threads 2 --shards 16 --mem-budget 64K > "$WORK_DIR/mc_ooc2.txt"
normalize_mc() {
    sed -e 's/ thread(s), .*$/ thread(s)/' -e '/^out-of-core:/d' "$1"
}
normalize_mc "$WORK_DIR/mc_res.txt" > "$WORK_DIR/mc_res.norm"
normalize_mc "$WORK_DIR/mc_ooc1.txt" > "$WORK_DIR/mc_ooc1.norm"
normalize_mc "$WORK_DIR/mc_ooc2.txt" > "$WORK_DIR/mc_ooc2.norm"
diff "$WORK_DIR/mc_res.norm" "$WORK_DIR/mc_ooc1.norm"
diff "$WORK_DIR/mc_res.norm" "$WORK_DIR/mc_ooc2.norm"
# The budgeted runs must actually have hit the disk.
grep -q '^out-of-core: ' "$WORK_DIR/mc_ooc1.txt"
if grep -q 'spilled 0 bytes' "$WORK_DIR/mc_ooc1.txt"; then
    echo "forced-spill run spilled nothing" >&2
    exit 1
fi

echo "==> solver differential oracle (compiled vs --no-compile, byte-for-byte, every spec + an over-budget one)"
# Three unconstrained 100-value columns: the step adding `o` takes 10^6
# candidates, over the solver's row budget, so both paths must refuse
# the table with the same error.
big="$WORK_DIR/big.ccsql"
{
    echo "table Big"
    for col in a b; do
        echo "input $col = $(seq -s ', ' -f "$col%g" 0 99)"
    done
    echo "output o = $(seq -s ', ' -f 'o%g' 0 99)"
    echo "flow a, o"
} > "$big"
for spec in specs/*.ccsql "$big"; do
    rc_c=0
    rc_i=0
    cargo run --quiet --release -p ccsql-cli -- solve "$spec" --no-lint \
        > "$WORK_DIR/solve_c.txt" 2>&1 || rc_c=$?
    cargo run --quiet --release -p ccsql-cli -- solve "$spec" --no-lint --no-compile \
        > "$WORK_DIR/solve_i.txt" 2>&1 || rc_i=$?
    if [ "$rc_c" -ne "$rc_i" ]; then
        echo "solve exit codes differ for $spec (compiled=$rc_c interpreted=$rc_i)" >&2
        exit 1
    fi
    diff "$WORK_DIR/solve_c.txt" "$WORK_DIR/solve_i.txt" || {
        echo "compiled and interpreted solves differ for $spec" >&2
        exit 1
    }
done
# The loop ended on the over-budget spec: both paths refused it.
if [ "$rc_c" -ne 1 ] || ! grep -q 'column o takes 1000000 candidate rows, over the 500000-row budget' \
    "$WORK_DIR/solve_c.txt"; then
    echo "the over-budget spec was not refused with the row-budget error" >&2
    exit 1
fi

echo "==> ccsql fuzz --quick (chaos smoke: clean audit, live fault path, determinism)"
cargo run --quiet --release -p ccsql-cli -- fuzz --quick --seed 1 \
    > "$WORK_DIR/fuzz1.txt"
cargo run --quiet --release -p ccsql-cli -- fuzz --quick --seed 1 \
    > "$WORK_DIR/fuzz2.txt"
# Same seed twice => byte-identical JSONL (chaos is deterministic).
diff "$WORK_DIR/fuzz1.txt" "$WORK_DIR/fuzz2.txt"
grep -q '"type":"fuzz-summary"' "$WORK_DIR/fuzz1.txt"
grep -q '"audit_failures":0' "$WORK_DIR/fuzz1.txt"
if grep '"type":"fuzz-summary"' "$WORK_DIR/fuzz1.txt" | grep -q '"faults_injected":0'; then
    echo "fuzz injected no faults — the chaos path is dead" >&2
    exit 1
fi

echo "==> ccsql stats (flight-recorder smoke: valid traces, every stage spanned, stable span structure, stage counters)"
# The default pipeline (gen, deadlock v1, sim, mc) and a spec-file
# lint, each traced twice.
for i in 1 2; do
    cargo run --quiet --release -p ccsql-cli -- --trace-out "$WORK_DIR/stats$i.json" \
        stats > "$WORK_DIR/stats$i.txt"
    cargo run --quiet --release -p ccsql-cli -- --trace-out "$WORK_DIR/lint$i.json" \
        stats lint specs/fig3.ccsql > "$WORK_DIR/lint$i.txt"
done
for trace in "$WORK_DIR"/stats?.json "$WORK_DIR"/lint?.json; do
    grep -q '"displayTimeUnit"' "$trace"
done
# Span *structure* (stage/name sequence) is a pure function of control
# flow — only the timestamps may differ between two runs.
structure() {
    tr '{' '\n' < "$1" | sed -n 's/.*"cat":"\([a-z]*\)","name":"\([^"]*\)".*/\1 \2/p'
}
for cmd in stats lint; do
    structure "$WORK_DIR/${cmd}1.json" > "$WORK_DIR/${cmd}_spans1.txt"
    structure "$WORK_DIR/${cmd}2.json" > "$WORK_DIR/${cmd}_spans2.txt"
    test -s "$WORK_DIR/${cmd}_spans1.txt"
    diff "$WORK_DIR/${cmd}_spans1.txt" "$WORK_DIR/${cmd}_spans2.txt"
done
# Together the traces span every pipeline stage.
for stage in lint solve depend flows mc sim; do
    cat "$WORK_DIR/stats1.json" "$WORK_DIR/lint1.json" | grep -q "\"cat\":\"$stage\"" || {
        echo "stats traces have no $stage span" >&2
        exit 1
    }
done
# The entry lines carry each call's wall time and the stage counters.
grep -q '^solve/D ms=[0-9.]* rows=498 ' "$WORK_DIR/stats1.txt"
# The masked extension step evaluates D's constraints once per row, not
# once per candidate: fewer than a third as many evaluations.
d_line=$(grep '^solve/D ms=' "$WORK_DIR/stats1.txt")
d_cands=$(echo "$d_line" | sed -n 's/.* candidates=\([0-9]*\).*/\1/p')
d_evals=$(echo "$d_line" | sed -n 's/.* evals=\([0-9]*\).*/\1/p')
if [ -z "$d_evals" ] || [ $((d_evals * 3)) -ge "$d_cands" ]; then
    echo "solve/D made ${d_evals:-no} evaluation(s) for $d_cands candidates: the masked step did not run" >&2
    exit 1
fi
grep -q '^mc/explore ms=[0-9.]* .* arena_bytes=[0-9]* .* mem_peak_bytes=[0-9]* ' "$WORK_DIR/stats1.txt"
# The engine's phase clocks: under a small memory budget the run flushes
# exchange buffers to candidate files and merges them back.
cargo run --quiet --release -p ccsql-cli -- stats mc --nodes 3 --quota 3 --no-symmetry \
    --mem-budget 2M --shards 16 > "$WORK_DIR/stats_spill.txt"
grep -q '^mc/explore ms=[0-9.]* .* exchange_ns=[1-9][0-9]* merge_ns=[1-9][0-9]* ' \
    "$WORK_DIR/stats_spill.txt" || {
    echo "stats mc under a 2M memory budget shows no exchange or merge time" >&2
    exit 1
}

echo "==> ccsql --heartbeat (result-neutral; the final tick shows the last span of the run)"
cargo run --quiet --release -p ccsql-cli -- mc --spec specs/phase_priority.ccsql --nodes 3 \
    > "$WORK_DIR/hb_off.txt"
cargo run --quiet --release -p ccsql-cli -- --heartbeat=1 mc --spec specs/phase_priority.ccsql \
    --nodes 3 > "$WORK_DIR/hb_on.txt" 2> "$WORK_DIR/hb_on.err"
diff "$WORK_DIR/hb_off.txt" "$WORK_DIR/hb_on.txt"
tail -n1 "$WORK_DIR/hb_on.err" | grep -q '^ccsql +[0-9.]*s mc/.* final=1$' || {
    echo "the final heartbeat named no mc span" >&2
    exit 1
}
# The builtin checker's last span is its exploration, with the end-of-run
# state count.
cargo run --quiet --release -p ccsql-cli -- --heartbeat=1 mc --nodes 3 --quota 2 \
    > /dev/null 2> "$WORK_DIR/hb_mc.err"
tail -n1 "$WORK_DIR/hb_mc.err" | grep -q '^ccsql +[0-9.]*s mc/explore .* states=6376 .* final=1$' || {
    echo "the final heartbeat of mc --nodes 3 --quota 2 did not show states=6376" >&2
    exit 1
}

echo "==> ccsql lint (clean specs must stay clean; seeded bugs must be caught)"
cargo test -q -p ccsql-lint
# bedrock_moesif_buggy is *deliberately* in the clean list: its seeded
# bug is undrainability, which only the specmc zoo stage can see.
cargo run --quiet --release -p ccsql-cli -- lint specs/fig3.ccsql \
    specs/bedrock_moesif.ccsql specs/bedrock_moesif_buggy.ccsql \
    specs/phase_priority.ccsql
cargo run --quiet --release -p ccsql-cli -- lint --protocol
for bad in specs/fig3_buggy.ccsql specs/phase_priority_buggy.ccsql; do
    if cargo run --quiet --release -p ccsql-cli -- lint "$bad"; then
        echo "lint failed to reject $bad" >&2
        exit 1
    fi
done

echo "==> ccsql flows (parameterized vs concrete vs operational deadlock verdicts, N=2..5)"
# Spec files: clean specs must be verdict-clean at every N; the seeded
# flow-bug fixture must be rejected with CCL031 naming the Figure-4
# VC2/VC4 cycle. (The per-N verdict lines cover N=2..5.)
for spec in specs/*.ccsql; do
    case "$spec" in
    *fig3_flowbug*)
        if cargo run --quiet --release -p ccsql-cli -- flows "$spec" \
            > "$WORK_DIR/flows_bug.txt" 2>&1; then
            echo "flows failed to reject $spec" >&2
            exit 1
        fi
        grep -q 'CCL031' "$WORK_DIR/flows_bug.txt"
        grep -q 'VC2' "$WORK_DIR/flows_bug.txt"
        grep -q 'VC4' "$WORK_DIR/flows_bug.txt"
        grep -q 'N=2: deadlock' "$WORK_DIR/flows_bug.txt"
        grep -q 'N=5: deadlock' "$WORK_DIR/flows_bug.txt"
        ;;
    *fig3_buggy*)
        # Lint fixture with the pre-PR role-less `flow` directive: flows
        # needs role slots and must say so rather than guess.
        if cargo run --quiet --release -p ccsql-cli -- flows "$spec" \
            > "$WORK_DIR/flows_roleless.txt" 2>&1; then
            echo "flows accepted a role-less spec" >&2
            exit 1
        fi
        grep -q 'no role-tagged flow columns' "$WORK_DIR/flows_roleless.txt"
        ;;
    *)
        cargo run --quiet --release -p ccsql-cli -- flows "$spec" \
            > "$WORK_DIR/flows_ok.txt"
        grep -q 'deadlock-free for every N' "$WORK_DIR/flows_ok.txt"
        ;;
    esac
done
# Protocol: the parameterized verdict must track the assignment (the
# deadlock pre-pass additionally hard-fails on any flows/VCG split),
# and the operational leg must concur: the fixed protocol (V2 channel
# discipline) verifies deadlock-free in the model checker at N=2..5.
cargo run --quiet --release -p ccsql-cli -- flows --protocol --assignment v2 > /dev/null
if cargo run --quiet --release -p ccsql-cli -- flows --protocol --assignment v1 \
    > "$WORK_DIR/flows_v1.txt" 2>&1; then
    echo "flows missed the V1 Figure-4 cycle" >&2
    exit 1
fi
grep -q 'CCL031' "$WORK_DIR/flows_v1.txt"
cargo run --quiet --release -p ccsql-cli -- deadlock --assignment v2 > /dev/null
for nodes in 2 3 4 5; do
    cargo run --quiet --release -p ccsql-cli -- mc --nodes "$nodes" --quota 1 \
        > "$WORK_DIR/mc_flows.txt"
    grep -q 'verified' "$WORK_DIR/mc_flows.txt" || {
        echo "mc at $nodes node(s) disagrees with the parameterized verdict" >&2
        exit 1
    }
done

echo "==> ccsql flows --json determinism (two runs must be byte-identical)"
cargo run --quiet --release -p ccsql-cli -- flows --protocol --assignment v2 --json \
    > "$WORK_DIR/flows_j1.json"
cargo run --quiet --release -p ccsql-cli -- flows --protocol --assignment v2 --json \
    > "$WORK_DIR/flows_j2.json"
diff "$WORK_DIR/flows_j1.json" "$WORK_DIR/flows_j2.json"

echo "==> ccsql zoo --quick (protocol x stage matrix: determinism + completeness)"
cargo run --quiet --release -p ccsql-cli -- zoo specs --quick > "$WORK_DIR/zoo1.jsonl"
cargo run --quiet --release -p ccsql-cli -- zoo specs --quick > "$WORK_DIR/zoo2.jsonl"
# Two runs must be byte-identical, the expectations (clean packs pass
# everything, seeded-bug packs fail somewhere) must hold, and every
# pack on disk must appear in the matrix.
diff "$WORK_DIR/zoo1.jsonl" "$WORK_DIR/zoo2.jsonl"
grep -q 'expectations met' "$WORK_DIR/zoo1.jsonl"
for spec in specs/*.ccsql; do
    stem=$(basename "$spec" .ccsql)
    grep -q "\"protocol\":\"$stem\"" "$WORK_DIR/zoo1.jsonl" || {
        echo "zoo matrix is missing $stem" >&2
        exit 1
    }
done

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (no broken or ambiguous intra-doc links)"
RUSTDOCFLAGS='-D warnings' cargo doc --workspace --no-deps --offline

echo "verify: all gates passed"
