#!/usr/bin/env bash
# Full local CI gate: format, lints, build, tests. Mirrors
# .github/workflows/ci.yml so "ci.sh passes" == "CI is green".
#
#   ./ci.sh         the full gate
#   ./ci.sh bench   the full zero-copy perf harness only (writes
#                   BENCH_<date>.json; the gate itself runs the tiny
#                   bench-smoke tier)
#   ./ci.sh drill   the full recovery-drill matrix only (all five
#                   scenarios x strategies x policies; the gate itself
#                   runs the smoke drill subset inside bench-smoke)
set -euo pipefail
cd "$(dirname "$0")"

if [[ "${1:-}" == "bench" ]]; then
  echo "== repro --bench (full zero-copy perf harness) =="
  cargo run --release -p replidedup-bench --bin repro -- --bench
  exit 0
fi

if [[ "${1:-}" == "drill" ]]; then
  echo "== repro --drill all (full recovery-drill matrix) =="
  cargo run --release -p replidedup-bench --bin repro -- --drill all
  exit 0
fi

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --release

echo "== cargo test (umbrella crate: unit, doc and root integration suites) =="
# Tier 1. This one step runs every root integration suite exactly once
# (the workspace step below excludes the umbrella crate):
# - faults (seeded chaos suite): the vendored proptest derives every case
#   from a fixed seed, so this fault-injection run is reproducible
#   bit-for-bit across CI machines.
# - repair (self-healing suite): scrub + repair + retrying-restore
#   invariants, also fixed-seed: node failures, corruption injection, and
#   transient hiccups all heal back to K copies with byte-exact restores.
# - zerocopy (zero-copy guarantees): pointer-equality across wire
#   round-trips, byte-exact dump/restore for every strategy x K x copy
#   mode.
# - chunking (chunking engine): tiling/bounds/determinism/shift-resilience
#   properties for every chunker, golden cut-point fixtures (frozen on-disk
#   format), and the end-to-end CDC-beats-fixed dedup claim.
# - ec (erasure-coding chaos suite): Rs(4+2) on 6 nodes: every 2-of-6
#   node-loss pattern restores byte-exact through reconstruction alone,
#   repair rebuilds shards idempotently, >m losses degrade to typed
#   errors, and the dedup credit cuts parity.
# - healing (continuous-healing suite): incremental resumable heal: kill a
#   healer mid-repair and resume from its persisted cursor, heal while a
#   concurrent dump runs, crash a dump mid-commit and heal the wreckage,
#   and converge from arbitrary proptest-generated cursors — all to the
#   same fully healed state.
# - sessions (scale-out runtime suite): pooled-scheduler equivalence (64
#   ranks on 4 workers == thread-per-rank, bytes and trace spans) and
#   concurrent labeled sessions: a crash in one session never poisons
#   another's byte-exact restore.
# - end_to_end, paper_claims, properties, trace: the paper's claims and
#   the dump/restore/trace invariants.
cargo test -q

echo "== dead-code gate (self-healing + zero-copy modules) =="
# These modules must be fully wired into the public API — a stray
# #[allow(dead_code)] means something regressed to unreachable.
if grep -n '#\[allow(dead_code)\]' \
    crates/storage/src/scrub.rs \
    crates/core/src/repair.rs \
    crates/core/src/retry.rs \
    crates/buf/src/lib.rs \
    crates/buf/src/chunk.rs \
    crates/buf/src/pool.rs \
    crates/core/src/exchange.rs \
    crates/mpi/src/wire.rs \
    crates/bench/src/perf.rs \
    tests/repair.rs \
    tests/zerocopy.rs; then
  echo "ci: FAIL — #[allow(dead_code)] found in gated modules" >&2
  exit 1
fi

echo "== no-deprecated-shims gate =="
# The transitional &[u8] shims (dump_output/restore_output, Comm::send,
# Window::get/local_data) were removed after one release of deprecation;
# a #[deprecated] attribute reappearing in the workspace means a shim
# crept back instead of the API being designed right.
if grep -rn '#\[deprecated' crates/*/src tests; then
  echo "ci: FAIL — deprecated shim reintroduced; extend the API instead" >&2
  exit 1
fi

echo "== panic-free-decode gate (erasure coding) =="
# RS decode/reconstruct run against possibly corrupt or incomplete
# shards; every failure there must surface as a typed EcError, never a
# panic. The gate covers the whole crate's non-test code (everything
# above the `#[cfg(test)]` module) to keep the contract simple.
for f in crates/ec/src/*.rs; do
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -v '^\s*//' \
      | grep -nE 'panic!|\.unwrap\(\)|\.expect\(|unreachable!'; then
    echo "ci: FAIL — panic path in replidedup-ec non-test code ($f)" >&2
    exit 1
  fi
done

echo "== panic-free gate (heal engine) =="
# The background healer runs unattended against degraded, possibly
# corrupt clusters; every failure must surface as a typed error the
# operator's loop can retry, never a panic that kills the healer.
if sed '/#\[cfg(test)\]/,$d' crates/core/src/heal.rs | grep -v '^\s*//' \
    | grep -nE 'panic!|\.unwrap\(\)|\.expect\(|unreachable!'; then
  echo "ci: FAIL — panic path in heal-engine non-test code" >&2
  exit 1
fi

echo "== unsafe-confinement gate (SHA-NI kernel only) =="
# The SHA-NI kernel in crates/hash/src/sha1.rs is the one home of
# `unsafe` outside test code, and every `unsafe` there sits under a
# `// SAFETY:` comment naming the CPU features detected before the call.
for f in $(find crates/*/src crates/*/benches src examples -name '*.rs'); do
  [[ "$f" == crates/hash/src/sha1.rs ]] && continue
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -v '^\s*//' | grep -nwE 'unsafe'; then
    echo "ci: FAIL — unsafe outside the SHA-NI kernel ($f)" >&2
    exit 1
  fi
done
if ! sed '/#\[cfg(test)\]/,$d' crates/hash/src/sha1.rs | awk '
    /^[[:space:]]*\/\// { note = note $0 "\n"; next }
    /(^|[^a-z_])unsafe([^a-z_]|$)/ {
      if (note !~ /SAFETY:/ || note !~ /sha[ ,]/ || note !~ /sse2/ \
          || note !~ /ssse3/ || note !~ /sse4\.1/) { print NR ": " $0; bad = 1 }
    }
    { note = "" }
    END { exit bad }'; then
  echo "ci: FAIL — unsafe in sha1.rs without a SAFETY note naming its features" >&2
  exit 1
fi

echo "== one-planner gate (heal and repair plan once) =="
# Heal and repair steps gather every leader's inventory at one planner
# rank, which runs build_plan once and broadcasts the plan. Outside unit
# tests, build_plan's one caller is plan_at_planner in
# crates/core/src/repair.rs; a call anywhere else is per-rank planning
# creeping back (every rank repeating the same O(world) plan).
stray=0
for f in $(find crates/*/src crates/*/benches src examples -name '*.rs'); do
  sed '/#\[cfg(test)\]/,$d' "$f" | awk -v f="$f" '
    /^[[:space:]]*\/\// { next }
    /^[a-z]/ { fn = "" }
    /^(pub(\([a-z]+\))? )?fn [a-z_0-9]+/ {
      match($0, /fn [a-z_0-9]+/); fn = substr($0, RSTART + 3, RLENGTH - 3)
    }
    /build_plan/ && !/fn build_plan\(/ \
        && !(f == "crates/core/src/repair.rs" && fn == "plan_at_planner") {
      print f ":" NR ": " $0; bad = 1
    }
    END { exit bad }' || stray=1
done
if [[ $stray -ne 0 ]]; then
  echo "ci: FAIL — build_plan used outside plan_at_planner; plan at the planner" >&2
  exit 1
fi

echo "== restore-planner gate (no world allgather in restore) =="
# Restore plans each step at one planner rank: ranks gather their needs
# and holder inventories there, and the planner broadcasts the servers.
# An allgather in restore.rs is O(N^2) holder discovery creeping back
# (every rank decoding every rank's inventory).
if grep -nE '\.(try_)?allgather(_group)?\(' crates/core/src/restore.rs; then
  echo "ci: FAIL — allgather in crates/core/src/restore.rs; plan at the restore planner" >&2
  exit 1
fi

echo "== stray-copy gate (hot-path modules) =="
# The dump/restore/repair hot paths moved to refcounted Chunk payloads;
# a .to_vec() creeping back in is a silent full-payload copy.
if grep -n '\.to_vec()' \
    crates/core/src/dump.rs \
    crates/core/src/restore.rs \
    crates/core/src/repair.rs \
    crates/core/src/heal.rs; then
  echo "ci: FAIL — .to_vec() payload copy in a zero-copy hot path" >&2
  exit 1
fi

echo "== stride-math gate (variable-length chunk paths) =="
# Chunk geometry is carried as explicit per-chunk lengths end to end; a
# hardcoded `i * chunk_size` (or `* 4096`) creeping back into a hot-path
# module silently re-assumes fixed-stride chunking. The fixed chunker
# itself (crates/hash) is the one legitimate home for stride math.
if grep -nE '\* *(cfg\.|self\.|idx\.)?chunk_size|chunk_size *\*|\* *4096|4096 *\*' \
    crates/core/src/dump.rs \
    crates/core/src/restore.rs \
    crates/core/src/exchange.rs \
    crates/core/src/local.rs \
    crates/core/src/offsets.rs \
    crates/core/src/plan.rs \
    crates/storage/src/manifest.rs \
    crates/storage/src/scrub.rs; then
  echo "ci: FAIL — fixed-stride chunk math outside the fixed chunker" >&2
  exit 1
fi

echo "== thread-spawn gate (all threads go through the scheduler) =="
# Every thread in the tree must be named and accounted for: rank bodies
# run under sched::run_tasks, background work under sched::spawn. A raw
# std::thread::spawn / spawn_scoped / thread::Builder outside sched.rs
# bypasses the worker pool and the crash accounting.
if grep -rnE 'std::thread::spawn|spawn_scoped|thread::Builder' \
    crates tests examples \
    --include='*.rs' \
    | grep -v 'crates/mpi/src/sched.rs'; then
  echo "ci: FAIL — raw thread spawn outside crates/mpi/src/sched.rs" >&2
  exit 1
fi

echo "== ranks-smoke (128-rank dump/restore on the pooled scheduler) =="
# One real scale point per CI run: 128 ranks multiplexed onto the worker
# pool, all four paper strategies, every restore byte-verified and the
# measured replication + parity traffic cross-checked against the sim
# cost model (repro exits non-zero on any out-of-band cell).
cargo run --release -p replidedup-bench --bin repro -- \
  --ranks 128 --out target/ranks-smoke

echo "== bench-smoke (tiny perf harness + schema check) =="
# The harness validates the report against the replidedup-bench/v5 schema
# before writing it; a failure here means the bench or schema regressed.
# The smoke JSON must carry the chunker x strategy x workload matrix,
# the redundancy-policy matrix, the recovery-drill matrix, and the
# pooled-scheduler ranks matrix, and the headline claims must hold: CDC
# beats fixed chunking, Rs(4+2) beats 3x replication at equal tolerance,
# every smoke drill converged with byte-exact restores, and measured
# traffic agrees with the sim cost model (recovery_ms is recorded but
# never gated — drill timings are classified against a noise band, not
# asserted).
cargo run --release -p replidedup-bench --bin repro -- \
  --bench-smoke --bench-out target/bench-smoke.json
test -s target/bench-smoke.json
grep -q '"chunker_matrix"' target/bench-smoke.json
grep -q '"cdc_beats_fixed": true' target/bench-smoke.json
grep -q '"policy_matrix"' target/bench-smoke.json
grep -q '"rs_beats_replication": true' target/bench-smoke.json
grep -q '"dedup_credit_cuts_parity": true' target/bench-smoke.json
grep -q '"drill_matrix"' target/bench-smoke.json
grep -q '"recovery_ms"' target/bench-smoke.json
grep -q '"converged": true' target/bench-smoke.json
if grep -q '"converged": false' target/bench-smoke.json \
    || grep -q '"restore_verified": false' target/bench-smoke.json; then
  echo "ci: FAIL — a smoke recovery drill did not converge or verify" >&2
  exit 1
fi
grep -q '"ranks_matrix"' target/bench-smoke.json
grep -q '"sim_within_band": true' target/bench-smoke.json
if grep -q '"sim_within_band": false' target/bench-smoke.json; then
  echo "ci: FAIL — a ranks-sweep cell fell outside the sim traffic band" >&2
  exit 1
fi

echo "== cargo test --workspace (member crates) =="
# Every member crate's tests, once each; the umbrella crate ran above.
# Among them:
# - replidedup-ec (GF/RS property suite): GF(2^8) field axioms
#   (proptest), systematic-encode identity, and decode round-trips across
#   every loss pattern of at most m shards.
# - replidedup-hash (SHA-1 kernels): RFC 3174 / FIPS 180 vectors
#   (million-a included) pin both SHA-1 compressors, the portable one and
#   the CPU-dispatched SHA-NI one, and a differential proptest checks them
#   against each other over random lengths and streaming split points.
# - replidedup-mpi: exact message counts of every collective, the
#   allreduce operand bracket, and crashes at every tree position.
cargo test --workspace --exclude replidedup -q

echo "ci: all green"
