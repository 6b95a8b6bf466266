#!/usr/bin/env bash
# Full pre-merge gate: release build, whole test suite, pedantic clippy.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings

# Trace round-trip smoke: a recorded run must emit a JSONL trace the
# explorer can parse, with event counts that cross-check exactly.
# (A bare `cargo build --release` only builds the root package, so make
# sure the slsb binary itself is current.)
cargo build --release -p slsb-bench
tracefile="$(mktemp /tmp/slsb-trace.XXXXXX.jsonl)"
trap 'rm -f "$tracefile"' EXIT
run_out="$(./target/release/slsb run scenarios/flash_crowd_serverless.json --trace "$tracefile")"
reported="$(sed -n 's/^trace events  : //p' <<<"$run_out")"
engine="$(sed -n 's/^engine events : //p' <<<"$run_out")"
lines="$(wc -l <"$tracefile")"
if [[ -z "$reported" || "$reported" != "$lines" ]]; then
    echo "verify.sh: trace event count mismatch (reported ${reported:-none}, file has $lines)" >&2
    exit 1
fi
explorer_out="$(./target/release/slsb trace "$tracefile")"
explorer_engine="$(sed -n 's/^engine events : //p' <<<"$explorer_out")"
if [[ -z "$engine" || "$engine" != "$explorer_engine" ]]; then
    echo "verify.sh: engine event count mismatch (run ${engine:-none}, trace ${explorer_engine:-none})" >&2
    exit 1
fi
echo "verify.sh: trace round-trip ok ($lines trace events, $engine engine events)"

# Fault-matrix smoke: run the fault scenario with retries on two seeds and
# cross-check the recorded fault events against the analyzer's totals
# (platform faults + client-path faults == "fault" lines in the trace).
for smoke_seed in 7 99; do
    smoke_out="$(./target/release/slsb run scenarios/fault_smoke.json \
        --retry attempts=3,base=0.2 --seed "$smoke_seed" --trace "$tracefile")"
    plat_faults="$(sed -n 's/^plat. faults  : //p' <<<"$smoke_out")"
    client_faults="$(sed -n 's/^client faults : //p' <<<"$smoke_out")"
    retries="$(sed -n 's/^retries       : //p' <<<"$smoke_out")"
    fault_lines="$(grep -c '"event":"fault"' "$tracefile" || true)"
    if [[ -z "$plat_faults" || -z "$client_faults" ]]; then
        echo "verify.sh: fault smoke (seed $smoke_seed): missing fault totals in run output" >&2
        exit 1
    fi
    if (( plat_faults + client_faults != fault_lines )); then
        echo "verify.sh: fault smoke (seed $smoke_seed): analyzer totals ($plat_faults+$client_faults) != $fault_lines recorded fault events" >&2
        exit 1
    fi
    if (( plat_faults + client_faults == 0 )); then
        echo "verify.sh: fault smoke (seed $smoke_seed): the fault plan injected nothing" >&2
        exit 1
    fi
    if (( retries == 0 )); then
        echo "verify.sh: fault smoke (seed $smoke_seed): retries did not fire" >&2
        exit 1
    fi
    echo "verify.sh: fault smoke ok (seed $smoke_seed: $fault_lines fault events, $retries retries)"
done

# Kernel bench smoke + perf regression gate: the benches must compile, and
# a quick `slsb bench` must produce a parseable v2 report with every
# expected row present. The *threshold* gates (allocs/request ceiling,
# per-mode speedup floors, and the third-wave fleet throughput bar of
# 1.25x the pre-wave committed row) all live in perf::check_against and
# run through `slsb bench --check`, so verify.sh and the library can
# never disagree about what counts as a regression.
cargo bench --no-run -p slsb-bench
benchfile="$(mktemp /tmp/slsb-bench.XXXXXX.json)"
trap 'rm -f "$tracefile" "$benchfile"' EXIT
# Structural smoke on a quick report: rows present, both kernels, both
# executor modes, fleet row ran for real.
./target/release/slsb bench --quick --out "$benchfile" >/dev/null
python3 - "$benchfile" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["schema"] == "slsb-bench-kernel/v2", r["schema"]
rows = r["schedule_pop"] + r["end_to_end"]
assert rows, "bench report has no measurements"
for row in rows:
    assert row["events_per_sec"] > 0, row
kernels = {row["kernel"] for row in rows}
assert kernels == {"wheel", "heap"}, kernels
modes = {row["mode"] for row in r["end_to_end"]}
assert modes == {"sequential", "sharded"}, modes
fl = r["fleet"]
assert fl["events_per_sec"] > 0, fl
assert fl["requests"] > 0 and fl["apps"] > 0, fl
print(f"verify.sh: bench structure ok ({len(rows)} rows, "
      f"kernel speedup {r['kernel_speedup']:.2f}x, "
      f"end-to-end {r['end_to_end_speedup']:.2f}x)")
EOF
# Threshold gates via `slsb bench --check` (reads the committed
# BENCH_kernel.json, never writes). Bench runs are short, so single-run
# throughput is noisy (±40% on a busy box); the gate takes the best of
# five attempts — a real regression fails all of them, noise does not.
bench_ok=0
for attempt in 1 2 3 4 5; do
    if ./target/release/slsb bench --check; then
        bench_ok=1
        break
    fi
    echo "verify.sh: bench check attempt $attempt failed, retrying" >&2
done
if (( ! bench_ok )); then
    echo "verify.sh: bench check failed on all attempts" >&2
    exit 1
fi

# Profile smoke: a profiled run must attribute nearly all of its wall time
# to named regions, and the profile document must parse. Attribution is
# the tentpole guarantee — an unattributed remainder above 5% means a
# subsystem lost its ProfGuard.
profilefile="$(mktemp /tmp/slsb-profile.XXXXXX.json)"
metricsfile="$(mktemp /tmp/slsb-metrics.XXXXXX.json)"
trap 'rm -f "$tracefile" "$benchfile" "$profilefile" "$metricsfile" "$metricsfile.doctored"' EXIT
./target/release/slsb run scenarios/flash_crowd_serverless.json \
    --profile "$profilefile" --metrics-out "$metricsfile" \
    --slo "p99=0.5,sr=0.99" >/dev/null
python3 - "$profilefile" <<'EOF'
import json, sys
p = json.load(open(sys.argv[1]))
assert p["schema"].startswith("slsb-profile/"), p["schema"]
assert p["wall_secs"] > 0, p["wall_secs"]
assert p["roots"], "profile has no root regions"
# Unsharded run: region time is single-threaded, so the attributed sum
# must fit inside the wall window (2% slack for clock granularity).
assert p["attributed_secs"] <= p["wall_secs"] * 1.02, (
    f"region sums exceed wall: {p['attributed_secs']:.3f}s > {p['wall_secs']:.3f}s")
frac = p["attributed_frac"]
assert frac >= 0.95, f"only {frac:.1%} of wall time attributed (need >= 95%)"
print(f"verify.sh: profile gate ok ({frac:.1%} of "
      f"{p['wall_secs']:.3f}s wall attributed, {len(p['roots'])} roots)")
EOF
./target/release/slsb profile "$profilefile" --top 5 >/dev/null

# Diff gates: self-diff must be clean (exit 0), and a doctored metrics
# snapshot must trip the thresholds with the regression exit code (2),
# which is what CI consumers key on.
./target/release/slsb diff "$metricsfile" "$metricsfile" >/dev/null
echo "verify.sh: self-diff gate ok (exit 0)"
python3 - "$metricsfile" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
m["counters"]["requests_ok"] = int(m["counters"]["requests_ok"] * 0.9)
json.dump(m, open(sys.argv[1] + ".doctored", "w"))
EOF
set +e
./target/release/slsb diff "$metricsfile" "$metricsfile.doctored" >/dev/null
diff_rc=$?
set -e
if (( diff_rc != 2 )); then
    echo "verify.sh: diff gate: doctored metrics should exit 2, got $diff_rc" >&2
    exit 1
fi
echo "verify.sh: diff regression gate ok (doctored snapshot exits 2)"

# Fleet gate: the streaming multi-tenant engine must (a) run a 1M+-request,
# 500+-app fleet, and (b) hold arrival-side allocations at O(apps) — the
# lazy k-way merge pulls one arrival per cell at a time, so doubling the
# run duration (and with it the request count) must not grow the
# arrival-side allocation count.
fleet_small_out="$(./target/release/slsb run scenarios/fleet_zipf.json --scale 0.5 --jobs 4)"
fleet_big_out="$(./target/release/slsb run scenarios/fleet_zipf.json --jobs 4)"
small_requests="$(sed -n 's/^requests      : //p' <<<"$fleet_small_out")"
small_allocs="$(sed -n 's/^arrival allocs: //p' <<<"$fleet_small_out")"
big_requests="$(sed -n 's/^requests      : //p' <<<"$fleet_big_out")"
big_apps="$(sed -n 's/^apps          : //p' <<<"$fleet_big_out")"
big_allocs="$(sed -n 's/^arrival allocs: //p' <<<"$fleet_big_out")"
big_balance="$(sed -n 's/^cell balance  : //p' <<<"$fleet_big_out")"
python3 - "$big_apps" "$small_requests" "$big_requests" "$small_allocs" "$big_allocs" <<'EOF'
import sys
apps, small_req, big_req, small_allocs, big_allocs = map(int, sys.argv[1:6])
assert apps >= 500, f"fleet gate needs >= 500 apps, got {apps}"
assert big_req >= 1_000_000, f"fleet gate needs >= 1M requests, got {big_req}"
assert big_req > small_req * 4 // 3, (small_req, big_req)
# The O(apps) memory claim: the big run sees substantially more requests
# (half the duration does not mean half the requests for heavy-tailed
# on/off tenants, but the full run must still be >4/3 the half run), so a
# request-proportional arrival path would grow its allocation count in
# step. Flat-with-slack catches that regression on any hardware.
ceiling = small_allocs * 1.3 + 4096
assert big_allocs <= ceiling, (
    f"arrival allocs not flat: {big_allocs} at {big_req} requests vs "
    f"{small_allocs} at {small_req} (ceiling {ceiling:.0f})")
print(f"verify.sh: fleet gate ok ({apps} apps, {big_req} requests, "
      f"arrival allocs {small_allocs} -> {big_allocs})")
EOF

# Cell-balance gate: the weighted LPT partition must keep the heaviest
# cell within 2x the mean cell weight on the Zipf fleet — unless a single
# head app alone outweighs that bound, which no partition can fix (the
# cell holding it can never weigh less than the app). The run prints the
# verdict with the same exemption; re-derive it here from the numbers so
# a formatting change cannot silently weaken the gate.
python3 - "$big_balance" <<'EOF'
import re, sys
line = sys.argv[1]
m = re.fullmatch(
    r"(\d+) cells, max ([\d.]+) / mean ([\d.]+) / max-app ([\d.]+) \((\w+)\)",
    line)
assert m, f"unparseable cell balance line: {line!r}"
cells, max_cell, mean_cell, max_app, verdict = m.groups()
max_cell, mean_cell, max_app = map(float, (max_cell, mean_cell, max_app))
assert int(cells) > 1, f"fleet smoke should use multiple cells: {line!r}"
bound = max(2.0 * mean_cell, max_app * (1 + 1e-9))
assert max_cell <= bound, (
    f"partition imbalanced: max cell {max_cell:.1f} > bound {bound:.1f} "
    f"(mean {mean_cell:.1f}, max app {max_app:.1f})")
assert verdict == "balanced", f"run reports {verdict!r}: {line!r}"
print(f"verify.sh: cell balance ok ({cells} cells, "
      f"max {max_cell:.1f} <= bound {bound:.1f}, mean {mean_cell:.1f})")
EOF

# Fleet determinism: --jobs and --shards are thread budgets only, so the
# metrics snapshot must be byte-identical across worker budgets.
fleet_m1="$(mktemp /tmp/slsb-fleet.XXXXXX.json)"
fleet_m2="$(mktemp /tmp/slsb-fleet.XXXXXX.json)"
trap 'rm -f "$tracefile" "$benchfile" "$profilefile" "$metricsfile" "$metricsfile.doctored" "$fleet_m1" "$fleet_m2"' EXIT
./target/release/slsb run scenarios/fleet_zipf.json --scale 0.25 --jobs 1 \
    --metrics-out "$fleet_m1" >/dev/null
for budget in "--jobs 4" "--shards 4"; do
    # shellcheck disable=SC2086
    ./target/release/slsb run scenarios/fleet_zipf.json --scale 0.25 $budget \
        --metrics-out "$fleet_m2" >/dev/null
    if ! cmp -s "$fleet_m1" "$fleet_m2"; then
        echo "verify.sh: fleet run with $budget is not byte-identical to --jobs 1" >&2
        exit 1
    fi
done
echo "verify.sh: fleet determinism ok (--jobs/--shards byte-identical)"

# Policy-zoo smoke: every zoo member must run the fault scenario cleanly,
# keep the analyzer's fault totals in exact agreement with the recorded
# trace, and never beat the clairvoyant oracle's cold-start lower bound.
for policy in default fixed hybrid_histogram least_loaded no_overprovision; do
    policy_out="$(./target/release/slsb run scenarios/fault_smoke.json \
        --policy "$policy" --trace "$tracefile")"
    plat_faults="$(sed -n 's/^plat. faults  : //p' <<<"$policy_out")"
    client_faults="$(sed -n 's/^client faults : //p' <<<"$policy_out")"
    cold="$(sed -n 's/^cold starts   : //p' <<<"$policy_out")"
    oracle_cold="$(sed -n 's/^oracle        : cold >= \([0-9]*\).*/\1/p' <<<"$policy_out")"
    fault_lines="$(grep -c '"event":"fault"' "$tracefile" || true)"
    if [[ -z "$cold" || -z "$oracle_cold" ]]; then
        echo "verify.sh: policy zoo ($policy): missing cold-start/oracle lines" >&2
        exit 1
    fi
    if (( plat_faults + client_faults != fault_lines )); then
        echo "verify.sh: policy zoo ($policy): analyzer faults ($plat_faults+$client_faults) != $fault_lines recorded" >&2
        exit 1
    fi
    if (( oracle_cold > cold )); then
        echo "verify.sh: policy zoo ($policy): oracle bound $oracle_cold exceeds actual cold starts $cold" >&2
        exit 1
    fi
    echo "verify.sh: policy zoo ok ($policy: $cold cold starts, oracle >= $oracle_cold, $fault_lines fault events)"
done

# Unknown policy names must fail loudly, not fall back to a default.
set +e
./target/release/slsb run scenarios/fault_smoke.json --policy no_such_policy >/dev/null 2>&1
policy_rc=$?
set -e
if (( policy_rc == 0 )); then
    echo "verify.sh: policy zoo: unknown policy name was silently accepted" >&2
    exit 1
fi
echo "verify.sh: policy zoo rejects unknown names (exit $policy_rc)"

# Run flags a mode cannot honour must fail loudly, not be dropped: fleet
# runs score no SLOs, and a single-deployment run's worker budget is
# --shards, not --jobs.
for dropped in "scenarios/fleet_zipf.json --scale 0.05 --slo p99=0.001" \
    "scenarios/flash_crowd_serverless.json --jobs 2"; do
    set +e
    # shellcheck disable=SC2086
    ./target/release/slsb run $dropped >/dev/null 2>&1
    dropped_rc=$?
    set -e
    if (( dropped_rc == 0 )); then
        echo "verify.sh: 'slsb run $dropped' silently dropped a flag (exit 0)" >&2
        exit 1
    fi
    echo "verify.sh: 'slsb run $dropped' is rejected (exit $dropped_rc)"
done

# Non-default policies must stay worker-budget invariant too: sharded
# single-run metrics and fleet metrics must be byte-identical across
# --shards/--jobs under the adaptive hybrid-histogram policy.
./target/release/slsb run scenarios/fault_smoke.json --policy hybrid_histogram \
    --shards 2 --metrics-out "$fleet_m1" >/dev/null
./target/release/slsb run scenarios/fault_smoke.json --policy hybrid_histogram \
    --shards 4 --metrics-out "$fleet_m2" >/dev/null
if ! cmp -s "$fleet_m1" "$fleet_m2"; then
    echo "verify.sh: sharded run under hybrid_histogram differs between --shards 2 and --shards 4" >&2
    exit 1
fi
./target/release/slsb run scenarios/fleet_zipf.json --policy hybrid_histogram \
    --scale 0.25 --jobs 1 --metrics-out "$fleet_m1" >/dev/null
./target/release/slsb run scenarios/fleet_zipf.json --policy hybrid_histogram \
    --scale 0.25 --jobs 4 --metrics-out "$fleet_m2" >/dev/null
if ! cmp -s "$fleet_m1" "$fleet_m2"; then
    echo "verify.sh: fleet run under hybrid_histogram differs between --jobs 1 and --jobs 4" >&2
    exit 1
fi
echo "verify.sh: policy determinism ok (hybrid_histogram byte-identical across worker budgets)"

# Trace-replay smoke: an ingested trace summary must replay its exact
# invocation count (the bucket grid is a contract, not a hint).
replay_out="$(./target/release/slsb run scenarios/fleet_trace_replay.json)"
replay_requests="$(sed -n 's/^requests      : //p' <<<"$replay_out")"
trace_invocations="$(python3 -c "
import json
t = json.load(open('scenarios/traces/sample_production.json'))
print(sum(sum(a['invocations']) for a in t['apps']))")"
if [[ -z "$replay_requests" || "$replay_requests" != "$trace_invocations" ]]; then
    echo "verify.sh: trace replay ran ${replay_requests:-none} requests, trace has $trace_invocations invocations" >&2
    exit 1
fi
echo "verify.sh: fleet trace replay ok ($replay_requests requests)"

echo "verify.sh: all gates passed"
