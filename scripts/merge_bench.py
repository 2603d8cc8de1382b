#!/usr/bin/env python3
"""Merge per-binary BENCH_*.json files into one BENCH_all.json artifact.

Usage: merge_bench.py -o BENCH_all.json BENCH_micro.json BENCH_pipeline.json ...

Each input must be valid JSON (one object per file, as every bench binary
emits); a malformed or empty file fails the merge with a non-zero exit so
CI catches a bench that wrote garbage. An *absent* input is different: it
means the job that produces it was skipped (matrix subset, filtered CI
run), so it is reported as a warning and left out of the merge rather than
failing it. The merged object is keyed by the input file's stem, e.g.
{"BENCH_micro": {...}, "BENCH_serve": {...}}, plus a "schema_version" field
so downstream tooling can detect layout changes.

Inputs that record a SIMD dispatch tier (a top-level "simd_tier" field, as
bench_micro emits) are cross-checked: every seed/optimized benchmark pair
(BM_Foo vs BM_Foo_Seed) must have been measured at the same tier, and all
inputs must agree on the active tier — a mismatch means artifacts from
different runs or machines were mixed, which would make the paired speedups
meaningless. The agreed tier is hoisted into BENCH_all.json as "simd_tier".
Benchmarks whose name ends in "_Scalar" are exempt from the pair check:
they force the scalar tier on purpose to isolate the SIMD contribution.

A BENCH_adaptive input (bench_adaptive: SLO-guarded serving under fault
injection) is schema-checked — both runs must carry a clean_drain flag, a
p95 trajectory, and a recovery figure, and the controlled run must carry a
journal-replay verdict — and its headline numbers are hoisted into
BENCH_all.json as "slo_recovery" so dashboards don't need to dig.

A BENCH_http input (bench_http: the open-loop load generator against the
/v1 network front end) is schema-checked too — it must carry the latency
percentile object (p50 <= p95 <= p99), a clean_drain flag, and, when the
slow-client scenario ran, a bounded resident-work verdict — and its
percentiles are hoisted as "http_latency".
"""

import json
import os
import sys

SCHEMA_VERSION = 5

SEED_SUFFIX = "_Seed"

ADAPTIVE_RUN_KEYS = ("clean_drain", "slo_recovery_seconds", "p95_trajectory",
                     "nougat_share", "in_breach_at_end")


def check_adaptive(merged):
    """Returns (hoisted dict or None, [error strings]) for BENCH_adaptive."""
    data = merged.get("BENCH_adaptive")
    if data is None:
        return None, []
    errors = []
    if not isinstance(data, dict) or data.get("bench") != "adaptive":
        return None, ["BENCH_adaptive: not a bench_adaptive emission"]
    for run in ("controlled", "uncontrolled"):
        entry = data.get(run)
        if not isinstance(entry, dict):
            errors.append(f"BENCH_adaptive: missing '{run}' run object")
            continue
        for key in ADAPTIVE_RUN_KEYS:
            if key not in entry:
                errors.append(f"BENCH_adaptive: {run} lacks '{key}'")
        if not isinstance(entry.get("p95_trajectory"), list):
            errors.append(f"BENCH_adaptive: {run} p95_trajectory not a list")
    controlled = data.get("controlled")
    if isinstance(controlled, dict) and "journal_replay_ok" not in controlled:
        errors.append("BENCH_adaptive: controlled lacks 'journal_replay_ok'")
    if errors:
        return None, errors
    hoisted = {
        "controlled_recovery_seconds": controlled["slo_recovery_seconds"],
        "uncontrolled_in_breach_at_end":
            data["uncontrolled"]["in_breach_at_end"],
        "quality_giveback_nougat_share":
            data.get("quality_giveback_nougat_share"),
        "journal_replay_ok": controlled["journal_replay_ok"],
    }
    return hoisted, []


HTTP_LATENCY_KEYS = ("p50_seconds", "p95_seconds", "p99_seconds")


def check_http(merged):
    """Returns (hoisted dict or None, [error strings]) for BENCH_http."""
    data = merged.get("BENCH_http")
    if data is None:
        return None, []
    errors = []
    if not isinstance(data, dict) or data.get("bench") != "http":
        return None, ["BENCH_http: not a bench_http emission"]
    if "clean_drain" not in data:
        errors.append("BENCH_http: lacks 'clean_drain'")
    counts = [data.get(key) for key in ("jobs", "completed", "failed")]
    if not all(isinstance(c, int) for c in counts):
        errors.append(
            "BENCH_http: lacks integer 'jobs', 'completed' and 'failed'")
    elif counts[2] != counts[0] - counts[1]:
        errors.append(
            f"BENCH_http: failed={counts[2]} is not jobs - completed "
            f"({counts[0]} - {counts[1]})")
    latency = data.get("latency")
    if not isinstance(latency, dict):
        errors.append("BENCH_http: lacks the 'latency' percentile object")
    else:
        for key in HTTP_LATENCY_KEYS:
            if not isinstance(latency.get(key), (int, float)):
                errors.append(f"BENCH_http: latency lacks numeric '{key}'")
        if not errors:
            p50, p95, p99 = (latency[k] for k in HTTP_LATENCY_KEYS)
            if not p50 <= p95 <= p99:
                errors.append(
                    f"BENCH_http: percentiles not monotone "
                    f"(p50={p50}, p95={p95}, p99={p99})")
    slow = data.get("slow_client")
    if not isinstance(slow, dict) or "ran" not in slow:
        errors.append("BENCH_http: lacks the 'slow_client' verdict object")
    elif slow["ran"] and not slow.get("bounded"):
        errors.append(
            "BENCH_http: slow-client scenario ran but resident work "
            "was not bounded")
    if errors:
        return None, errors
    return dict(latency), []


def check_tiers(merged):
    """Returns (simd_tier or None, [error strings]) for the merged object."""
    errors = []
    file_tiers = {}
    for name, data in merged.items():
        if name == "schema_version" or not isinstance(data, dict):
            continue
        tier = data.get("simd_tier")
        if isinstance(tier, str):
            file_tiers[name] = tier
        benchmarks = data.get("benchmarks")
        if not isinstance(benchmarks, dict):
            continue
        for bench_name, entry in benchmarks.items():
            if not bench_name.endswith(SEED_SUFFIX):
                continue
            base_name = bench_name[: -len(SEED_SUFFIX)]
            base = benchmarks.get(base_name)
            if not isinstance(entry, dict) or not isinstance(base, dict):
                continue
            seed_tier = entry.get("simd_tier")
            opt_tier = base.get("simd_tier")
            if seed_tier is None or opt_tier is None:
                continue
            if base_name.endswith("_Scalar"):
                continue
            if seed_tier != opt_tier:
                errors.append(
                    f"{name}: paired entries {bench_name} ({seed_tier}) and "
                    f"{base_name} ({opt_tier}) disagree on SIMD tier")
    distinct = sorted(set(file_tiers.values()))
    if len(distinct) > 1:
        listing = ", ".join(f"{n}={t}" for n, t in sorted(file_tiers.items()))
        errors.append(f"inputs disagree on SIMD tier: {listing}")
    tier = distinct[0] if len(distinct) == 1 else None
    return tier, errors


def main(argv):
    out_path = None
    inputs = []
    it = iter(argv[1:])
    for arg in it:
        if arg == "-o":
            out_path = next(it, None)
        else:
            inputs.append(arg)
    if not out_path or not inputs:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    merged = {"schema_version": SCHEMA_VERSION}
    failed = False
    skipped = 0
    for path in inputs:
        name = os.path.splitext(os.path.basename(path))[0]
        if not os.path.exists(path):
            print(f"merge_bench: warning: {path}: absent (job skipped?); "
                  "omitting from merge", file=sys.stderr)
            skipped += 1
            continue
        try:
            with open(path, "r", encoding="utf-8") as f:
                merged[name] = json.load(f)
        except (OSError, json.JSONDecodeError) as err:
            print(f"merge_bench: {path}: malformed bench output: {err}",
                  file=sys.stderr)
            failed = True
    if failed:
        return 1

    tier, tier_errors = check_tiers(merged)
    slo, adaptive_errors = check_adaptive(merged)
    http, http_errors = check_http(merged)
    if tier_errors or adaptive_errors or http_errors:
        for err in tier_errors + adaptive_errors + http_errors:
            print(f"merge_bench: {err}", file=sys.stderr)
        return 1
    if tier is not None:
        merged["simd_tier"] = tier
    if slo is not None:
        merged["slo_recovery"] = slo
    if http is not None:
        merged["http_latency"] = http

    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(merged, f, indent=2, sort_keys=True)
        f.write("\n")
    # schema_version plus the optional hoisted simd_tier / slo_recovery /
    # http_latency
    meta_keys = 1 + (1 if tier is not None else 0) + \
        (1 if slo is not None else 0) + (1 if http is not None else 0)
    count = len(merged) - meta_keys
    suffix = f" ({skipped} absent input(s) skipped)" if skipped else ""
    print(f"merge_bench: merged {count} bench files into {out_path}{suffix}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
