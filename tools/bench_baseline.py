#!/usr/bin/env python3
"""Guard against silent cost-model / plan-choice / spill drift in the bench
JSONs.

CI's bench-smoke step runs `fig5_tpch_q7 --smoke` and `ablation`; the
spill-smoke step re-runs fig5 (smoke) and fig7 under a 32 KiB per-instance
memory budget (`--mem-budget 32768`), which makes every breaker actually
spill (DESIGN.md §2.3). All of it is deterministic — estimated costs, byte
meters (network / measured disk / per-instance peak), strategy-mix counters,
and the per-budget sweep rows are pure functions of the workload, the cost
model, and the budget — so any difference from the committed baseline is a
real behavior change. Intended changes must regenerate the baseline in the
same commit.

Usage:
  tools/bench_baseline.py write  [--out bench/BENCH_baseline.json] [--dir .]
      Compose a new baseline from the fresh bench JSONs.
  tools/bench_baseline.py check  [--baseline bench/BENCH_baseline.json] [--dir .]
      Diff fresh bench JSONs against the baseline; exit 1 on drift.

Compared per figure run (matched by rank): estimated_cost (relative 1e-6),
network/disk/peak bytes and udf_calls (exact). Compared per budget-sweep row
(matched by budget): disk/peak bytes (exact). Compared per ablation row
(matched by workload+config): plans, estimated_cost, byte meters,
strategy-mix counters. Rows from profiler-based configs are skipped —
profiled hints measure real per-call wall time and are not deterministic.
Wall-clock fields are never compared.

BENCH_serving.json (CI's serving-smoke step, DESIGN.md §2.4) is
schema-checked rather than baselined: its latency percentiles are genuine
wall-clock measurements of concurrent load and would drift on every run.
Check mode requires the file, the presence of every admission counter
(including the cancelled / deadline_exceeded lifecycle counters), ledger
field, and per-class latency key, and the run-invariant invariants — zero
ledger violations, outputs_match, zero failed queries, and both
cancellation probes counted.

BENCH_enum_time.json (CI's enum-smoke step, DESIGN.md §3.4) is split the
same way: the search counters (closure alternatives — the ranked search at
top_k = kAllAlternatives, which must cost every discovered plan — and
ranked plans enumerated / pruned / stopped_early at the default top_k
budget) and best costs are deterministic and pinned against the baseline;
the wall-clock fields are not compared, except the one wall-clock
acceptance bar this repo's ranked search carries — the TPC-H Q7
ranked-vs-closure optimize speedup must stay >= 10x (closure costs ~17x
more plans there, so the bar has real slack). Check mode also re-asserts
the binary's own invariants: ok (which enum_time clears if the closure run
pruned or stopped early), every best_cost_equal, and every cache warm_hit.

BENCH_spec_smoke.json (CI's specialization-smoke step, DESIGN.md §2.6) is
fully deterministic: both modes, check and write re-assert byte-identical
outputs, the >= 2x interp_instructions reduction on the text-mining chain,
and fused_chains > 0, and the ablation G on/off rows must show the
specialized run saving instructions without moving any byte meter.
"""

import argparse
import json
import os
import sys

# Figure-shaped JSONs: the default bench-smoke fig5 plus the spill-smoke
# budgeted runs of fig5 and fig7.
FIG_FILES = [
    ("fig5_tpch_q7", "BENCH_fig5_tpch_q7.json"),
    ("fig5_tpch_q7_budget32768", "BENCH_fig5_tpch_q7_budget32768.json"),
    ("fig7_clickstream_budget32768",
     "BENCH_fig7_clickstream_budget32768.json"),
]
ABLATION = "BENCH_ablation.json"
SERVING = "BENCH_serving.json"
ENUM = "BENCH_enum_time.json"
SPEC = "BENCH_spec_smoke.json"

# Schema, not values: serving latencies are wall-clock and legitimately vary
# run to run. What CI pins is that the counters/fields exist and that the
# run-invariant invariants held.
SERVING_COUNTER_KEYS = [
    "submitted", "admitted", "completed", "failed", "cancelled",
    "deadline_exceeded", "rejected", "queue_high_water", "plan_cache_hits",
    "plan_cache_misses",
]
SERVING_LEDGER_KEYS = [
    "capacity_bytes", "carved_high_water_bytes", "live_high_water_bytes",
    "ledger_violations",
]
SERVING_CLASS_KEYS = [
    "class", "count", "p50_s", "p99_s", "mean_s", "max_s",
    "exec_p50_s", "exec_p99_s",
]

FIG_TOP_KEYS = [
    "mem_budget_bytes",
    "alternatives",
    "truncated",
    "implemented_rank",
    "sort_merge_plans",
    "combiner_plans",
    "best_uses_sort_merge",
    "best_uses_combiner",
]
FIG_RUN_EXACT = ["network_bytes", "disk_bytes", "peak_bytes", "udf_calls",
                 "skipped_batches", "skipped_spill_bytes", "fused_chains",
                 "specialized_instructions_saved", "projected_fields_skipped"]
SWEEP_EXACT = ["disk_bytes", "peak_bytes", "skipped_batches",
               "skipped_spill_bytes"]
ABLATION_EXACT = [
    "plans",
    "network_bytes",
    "disk_bytes",
    "peak_bytes",
    "sort_merge_plans",
    "combiner_plans",
    "skipped_batches",
    "skipped_spill_bytes",
    "interp_instructions",
    "fused_chains",
]
# Deterministic per-workload search counters at the default enumeration /
# top_k budget — the ranked-search equivalent of the figure byte meters.
ENUM_CLOSURE_EXACT = ["alternatives", "plans_enumerated"]
ENUM_RANKED_EXACT = ["plans_enumerated", "plans_pruned", "stopped_early"]
# Wall-clock acceptance bar: ranked anytime search must keep TPC-H Q7's
# optimize wall >= 10x below the enumerate-all-then-cost closure.
ENUM_Q7_MIN_SPEEDUP = 10.0
REL_TOL = 1e-6


def load(path):
    with open(path) as f:
        return json.load(f)


def rel_close(a, b):
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def nondeterministic(row):
    return "profiled" in row.get("config", "")


def extract_fig(fig):
    out = {k: fig[k] for k in FIG_TOP_KEYS}
    out["runs"] = [
        {k: run[k] for k in ["rank", "estimated_cost"] + FIG_RUN_EXACT}
        for run in fig["runs"]
    ]
    out["budget_sweep"] = [
        {k: row[k] for k in ["mem_budget_bytes"] + SWEEP_EXACT}
        for row in fig.get("budget_sweep", [])
    ]
    return out


def extract(dirname):
    ablation = load(os.path.join(dirname, ABLATION))
    base = {
        "comment": "Committed bench-smoke + spill-smoke baseline; regenerate "
                   "with tools/bench_baseline.py write when a cost-model, "
                   "plan-choice, or spill-behavior change is intended.",
        "ablation_rows": [
            {k: row[k] for k in ["workload", "config", "estimated_cost"]
             + ABLATION_EXACT}
            for row in ablation["rows"] if not nondeterministic(row)
        ],
    }
    for name, fname in FIG_FILES:
        base[name] = extract_fig(load(os.path.join(dirname, fname)))
    enum = load(os.path.join(dirname, ENUM))
    base["enum_time"] = {
        "top_k": enum["top_k"],
        "workloads": [
            {
                "workload": w["workload"],
                "closure": {k: w["closure"][k]
                            for k in ENUM_CLOSURE_EXACT + ["best_cost"]},
                "ranked": {k: w["ranked"][k]
                           for k in ENUM_RANKED_EXACT + ["best_cost"]},
                "best_cost_equal": w["best_cost_equal"],
            }
            for w in enum["workloads"]
        ],
    }
    return base


def check_fig(name, bf, ff, mismatch):
    for k in FIG_TOP_KEYS:
        if bf[k] != ff[k]:
            mismatch(name, k, bf[k], ff[k])
    fresh_runs = {r["rank"]: r for r in ff["runs"]}
    for want in bf["runs"]:
        got = fresh_runs.get(want["rank"])
        if got is None:
            mismatch(name, f"rank {want['rank']}", "present", "missing")
            continue
        if not rel_close(want["estimated_cost"], got["estimated_cost"]):
            mismatch(f"{name} rank {want['rank']}", "estimated_cost",
                     want["estimated_cost"], got["estimated_cost"])
        for k in FIG_RUN_EXACT:
            if want[k] != got[k]:
                mismatch(f"{name} rank {want['rank']}", k, want[k], got[k])
    if len(bf["runs"]) != len(ff["runs"]):
        mismatch(name, "run count", len(bf["runs"]), len(ff["runs"]))
    fresh_sweep = {r["mem_budget_bytes"]: r for r in ff["budget_sweep"]}
    for want in bf["budget_sweep"]:
        got = fresh_sweep.get(want["mem_budget_bytes"])
        where = f"{name} budget {want['mem_budget_bytes']:.0f}"
        if got is None:
            mismatch(name, f"sweep {want['mem_budget_bytes']:.0f}",
                     "present", "missing")
            continue
        for k in SWEEP_EXACT:
            if want[k] != got[k]:
                mismatch(where, k, want[k], got[k])
    if len(bf["budget_sweep"]) != len(ff["budget_sweep"]):
        mismatch(name, "sweep row count", len(bf["budget_sweep"]),
                 len(ff["budget_sweep"]))


def check_enum(baseline_enum, fresh_enum, mismatch):
    """Pins the deterministic search counters and best costs per workload."""
    if baseline_enum["top_k"] != fresh_enum["top_k"]:
        mismatch("enum_time", "top_k", baseline_enum["top_k"],
                 fresh_enum["top_k"])
    fresh_rows = {w["workload"]: w for w in fresh_enum["workloads"]}
    for want in baseline_enum["workloads"]:
        got = fresh_rows.get(want["workload"])
        where = f"enum_time [{want['workload']}]"
        if got is None:
            mismatch("enum_time", f"workload {want['workload']}", "present",
                     "missing")
            continue
        for mode, exact in [("closure", ENUM_CLOSURE_EXACT),
                            ("ranked", ENUM_RANKED_EXACT)]:
            for k in exact:
                if want[mode][k] != got[mode][k]:
                    mismatch(where, f"{mode}.{k}", want[mode][k], got[mode][k])
            if not rel_close(want[mode]["best_cost"], got[mode]["best_cost"]):
                mismatch(where, f"{mode}.best_cost", want[mode]["best_cost"],
                         got[mode]["best_cost"])
        if want["best_cost_equal"] != got["best_cost_equal"]:
            mismatch(where, "best_cost_equal", want["best_cost_equal"],
                     got["best_cost_equal"])
    if len(baseline_enum["workloads"]) != len(fresh_enum["workloads"]):
        mismatch("enum_time", "workload count",
                 len(baseline_enum["workloads"]),
                 len(fresh_enum["workloads"]))


def check_enum_invariants(dirname):
    """Re-asserts enum_time's run-invariant bars; returns error list."""
    path = os.path.join(dirname, ENUM)
    if not os.path.exists(path):
        return [f"enum_time: {ENUM} missing (did the enum-smoke step run?)"]
    errors = []
    enum = load(path)
    if enum.get("ok") is not True:
        errors.append("enum_time: ok is false — ranked top-1 missed the "
                      "closure best cost or a warm cache lookup missed")
    for w in enum.get("workloads", []):
        name = w.get("workload", "?")
        if w.get("best_cost_equal") is not True:
            errors.append(f"enum_time: {name} ranked top-1 cost != closure "
                          "best cost")
        if enum.get("cache_warm"):
            cache = w.get("cache")
            if cache is None:
                errors.append(f"enum_time: {name} lacks the cache section "
                              "despite --cache-warm")
            elif cache.get("warm_hit") is not True:
                errors.append(f"enum_time: {name} warm optimize missed the "
                              "plan cache")
        if (name == "tpch_q7"
                and w.get("ranked_speedup", 0) < ENUM_Q7_MIN_SPEEDUP):
            errors.append(
                f"enum_time: tpch_q7 ranked speedup {w.get('ranked_speedup')}"
                f"x fell below the {ENUM_Q7_MIN_SPEEDUP:.0f}x acceptance bar")
    return errors


def check_serving(dirname):
    """Schema + invariant check of BENCH_serving.json; returns error list."""
    path = os.path.join(dirname, SERVING)
    if not os.path.exists(path):
        return [f"serving: {SERVING} missing (did the serving-smoke "
                "step run?)"]
    errors = []
    serving = load(path)
    for section, keys in [("counters", SERVING_COUNTER_KEYS),
                          ("ledger", SERVING_LEDGER_KEYS)]:
        if section not in serving:
            errors.append(f"serving: section '{section}' missing")
            continue
        for k in keys:
            if k not in serving[section]:
                errors.append(f"serving: {section}.{k} missing")
    for k in ["outputs_match", "classes", "ok"]:
        if k not in serving:
            errors.append(f"serving: key '{k}' missing")
    for row in serving.get("classes", []):
        for k in SERVING_CLASS_KEYS:
            if k not in row:
                errors.append(
                    f"serving: class row {row.get('class', '?')} lacks {k}")
    if errors:
        return errors
    # The run-invariant invariants (wall-clock values are never compared).
    if serving["ledger"]["ledger_violations"] != 0:
        errors.append("serving: ledger_violations = "
                      f"{serving['ledger']['ledger_violations']} (must be 0: "
                      "aggregate live bytes exceeded the global budget)")
    if serving["outputs_match"] is not True:
        errors.append("serving: outputs_match is false — a served query's "
                      "output differed from its solo run")
    if serving["counters"]["failed"] != 0:
        errors.append(
            f"serving: {serving['counters']['failed']} queries failed")
    # The open-loop bench submits one deterministic cancel probe (fires its
    # token inside its first spill write) and one already-expired-deadline
    # probe on every run; both counters must show them.
    if serving["counters"]["cancelled"] < 1:
        errors.append("serving: cancel probe not counted — cancellation "
                      "propagation is dead")
    if serving["counters"]["deadline_exceeded"] < 1:
        errors.append("serving: expired-deadline probe not counted — "
                      "deadline enforcement is dead")
    if not serving.get("classes"):
        errors.append("serving: no per-class latency rows")
    return errors


def check_skipping_invariants(fresh):
    """Asserts zone-map data skipping is alive and sound (DESIGN.md §2.5).

    Two run-invariant bars, checked on the fresh JSONs so a regenerated
    baseline cannot silently wash them away: (1) the spill-smoke Q7 run at
    the 32 KiB budget must actually skip spilled build runs — a refactor
    that quietly stops skipping shows up as skipped_spill_bytes == 0 here;
    (2) the ablation's on/off pair must satisfy the conservation law
    disk(on) + skipped(on) == disk(off) with a real saving, which is what
    makes the skipped meter a true elided-read count rather than a free
    counter.
    """
    errors = []
    sweep = {r["mem_budget_bytes"]: r
             for r in fresh["fig5_tpch_q7_budget32768"]["budget_sweep"]}
    row = sweep.get(32768.0) or sweep.get(32768)
    if row is None:
        errors.append("skipping: fig5 budget sweep lacks the 32768 row")
    elif row["skipped_spill_bytes"] <= 0:
        errors.append("skipping: Q7 at the 32768 budget skipped no spill "
                      "bytes — zone-map run skipping is dead")
    rows = {r["config"]: r for r in fresh["ablation_rows"]
            if r["workload"] == "tpch_q7"}
    on, off = rows.get("data skipping"), rows.get("no data skipping")
    if on is None or off is None:
        errors.append("skipping: ablation F on/off rows missing")
        return errors
    if on["skipped_spill_bytes"] <= 0:
        errors.append("skipping: ablation F 'data skipping' row skipped no "
                      "spill bytes")
    if off["skipped_spill_bytes"] != 0 or off["skipped_batches"] != 0:
        errors.append("skipping: ablation F 'no data skipping' row has "
                      "nonzero skipped meters — the switch is not honored")
    if on["disk_bytes"] + on["skipped_spill_bytes"] != off["disk_bytes"]:
        errors.append(
            "skipping: disk(on) + skipped(on) != disk(off) "
            f"({on['disk_bytes']} + {on['skipped_spill_bytes']} vs "
            f"{off['disk_bytes']}) — a strategy decision leaked the "
            "skipping switch")
    if on["disk_bytes"] >= off["disk_bytes"]:
        errors.append("skipping: data skipping did not reduce disk_bytes")
    return errors


def check_specialization_invariants(dirname, fresh):
    """Asserts fused-chain specialization is alive and sound (§2.6).

    Checked on the fresh outputs so a regenerated baseline cannot wash them
    away: (1) the spec-smoke run must report byte-identical outputs and a
    >= 2x interp_instructions reduction on the text-mining chain; (2) the
    ablation G on/off pair must show the specialized run fusing at least
    one chain and saving instructions. Byte-meter equality across modes is
    NOT asserted here: ablation G ablates the cost-model weight too, so the
    interpreted run may legitimately execute a different winning plan — the
    exact-equality contract lives where the toggle is exec-only (spec_smoke
    and both differential oracles).
    """
    path = os.path.join(dirname, SPEC)
    if not os.path.exists(path):
        return [f"specialization: {SPEC} missing (did the "
                "specialization-smoke step run?)"]
    errors = []
    spec = load(path)
    if spec.get("outputs_match") is not True:
        errors.append("specialization: spec_smoke outputs differ between "
                      "specialized and interpreted runs")
    if spec.get("instruction_ratio", 0) < 2.0:
        errors.append("specialization: spec_smoke instruction ratio "
                      f"{spec.get('instruction_ratio')} fell below 2x")
    if spec.get("fused_chains", 0) <= 0:
        errors.append("specialization: spec_smoke fused no chains")
    for wl in ("textmining", "tpch_q7"):
        rows = {r["config"]: r for r in fresh["ablation_rows"]
                if r["workload"] == wl}
        on = rows.get(f"{wl.replace('tpch_q7', 'q7')} specialized (default)")
        off = rows.get(f"{wl.replace('tpch_q7', 'q7')} interpreted")
        if on is None or off is None:
            errors.append(f"specialization: ablation G rows missing for {wl}")
            continue
        if on["fused_chains"] <= 0:
            errors.append(f"specialization: ablation G {wl} specialized row "
                          "fused no chains")
        if off["fused_chains"] != 0:
            errors.append(f"specialization: ablation G {wl} interpreted row "
                          "fused chains — the switch is not honored")
        if on["interp_instructions"] >= off["interp_instructions"]:
            errors.append(f"specialization: ablation G {wl} saved no "
                          "instructions")
    return errors


def check(baseline, fresh):
    errors = []

    def mismatch(where, key, want, got):
        errors.append(f"{where}: {key} drifted: baseline {want} vs fresh {got}")

    for name, _ in FIG_FILES:
        check_fig(name, baseline[name], fresh[name], mismatch)
    check_enum(baseline["enum_time"], fresh["enum_time"], mismatch)

    fresh_rows = {(r["workload"], r["config"]): r
                  for r in fresh["ablation_rows"]}
    for want in baseline["ablation_rows"]:
        key = (want["workload"], want["config"])
        got = fresh_rows.get(key)
        where = f"ablation [{key[0]} / {key[1]}]"
        if got is None:
            mismatch("ablation", f"row {key}", "present", "missing")
            continue
        if not rel_close(want["estimated_cost"], got["estimated_cost"]):
            mismatch(where, "estimated_cost", want["estimated_cost"],
                     got["estimated_cost"])
        for k in ABLATION_EXACT:
            if want[k] != got[k]:
                mismatch(where, k, want[k], got[k])
    if len(baseline["ablation_rows"]) != len(fresh["ablation_rows"]):
        mismatch("ablation", "row count", len(baseline["ablation_rows"]),
                 len(fresh["ablation_rows"]))
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("mode", choices=["write", "check"])
    ap.add_argument("--dir", default=".",
                    help="directory holding the fresh BENCH_*.json files")
    ap.add_argument("--baseline", default="bench/BENCH_baseline.json")
    ap.add_argument("--out", default="bench/BENCH_baseline.json")
    args = ap.parse_args()

    fresh = extract(args.dir)
    if args.mode == "write":
        errors = (check_skipping_invariants(fresh)
                  + check_specialization_invariants(args.dir, fresh))
        if errors:
            print("refusing to write a baseline that fails the skipping / "
                  "specialization invariants:")
            for e in errors:
                print("  " + e)
            return 1
        with open(args.out, "w") as f:
            json.dump(fresh, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.out}")
        return 0

    baseline = load(args.baseline)
    errors = (check(baseline, fresh) + check_serving(args.dir)
              + check_enum_invariants(args.dir)
              + check_skipping_invariants(fresh)
              + check_specialization_invariants(args.dir, fresh))
    if errors:
        print("bench baseline drift detected "
              "(regenerate bench/BENCH_baseline.json if intended):")
        for e in errors:
            print("  " + e)
        return 1
    print(f"bench JSONs match {args.baseline} "
          f"({len(baseline['ablation_rows'])} ablation rows, "
          + ", ".join(f"{len(baseline[n]['runs'])} {n} runs"
                      for n, _ in FIG_FILES)
          + f", {len(baseline['enum_time']['workloads'])} enum_time "
          "workloads); serving + enum_time schema and invariants OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
