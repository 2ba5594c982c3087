#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and summarise, or compare two summaries.

    python3 perfbench/collect.py run --seeds 1-10 --out perfbench/results/a.json
    python3 perfbench/collect.py run --seeds 1 --trace 1 --workloads wire_round --out t.json
    python3 perfbench/collect.py compare perfbench/results/a.json perfbench/results/b.json
    python3 perfbench/collect.py baseline a.json b.json --traced t.json --out BENCH.json

``run`` executes the command in BENCHMARK.json once per (workload, seed), one
process at a time, and records for every metric its values, median, quartiles
and spread (interquartile range over median). ``compare`` applies the
benchmark's acceptance rule: every end-to-end spread except that of setup_s
within its bound, and no median of the second summary worse than the first
by more than its bound. It exits non-zero if the rule fails. ``baseline``
stores two summaries, their comparison and a traced summary as one file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0}


def run(args) -> int:
    workloads = args.workloads or [w["name"] for w in SPEC["workloads"]]
    out = {"command": SPEC["command"], "run_seconds": SPEC["run_seconds"],
           "trace": args.trace, "seeds": _seeds(args.seeds), "workloads": {}}
    for name in workloads:
        values: dict[str, list[float]] = {}
        provenance = []
        for seed in out["seeds"]:
            cmd = SPEC["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(SPEC["run_seconds"]),
                                     "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{name} seed {seed}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{name} seed {seed}: output checks failed")
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            record = json.loads(
                (ROOT / "perfbench" / "results" / f"{name}-seed{seed}-trace{args.trace}.json")
                .read_text()
            )
            provenance.append(record["provenance"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in list(result["metrics"].items())[:4]
            ), flush=True)
        out["workloads"][name] = {
            "metrics": {k: _summary(v) for k, v in values.items()},
            "host_speed": [p["host_speed"] for p in provenance],
            "steps": [p["steps"] for p in provenance],
        }
        out.setdefault("provenance", {k: v for k, v in provenance[0].items()
                                      if k not in ("seed", "steps", "ref_kernel_ms", "host_speed")})
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


def compare(first: dict, second: dict) -> tuple[bool, list[str]]:
    """The acceptance rule; returns (ok, one line per metric and workload)."""
    ok, lines = True, []
    for m in SPEC["end_to_end"]:
        bound, lower = m["bound"], m["better"] == "lower"
        for name, w in first["workloads"].items():
            a = w["metrics"][m["name"]]
            b = second["workloads"][name]["metrics"][m["name"]]
            worse = (b["median"] - a["median"]) / abs(a["median"]) if a["median"] else 0.0
            worse = worse if lower else -worse
            spread = max(a["spread"], b["spread"])
            good = worse <= bound and (m["name"] == "setup_s" or spread <= bound)
            ok &= good
            lines.append(f"{'ok  ' if good else 'FAIL'} {name:<13} {m['name']:<21} "
                         f"median {a['median']:.6g} -> {b['median']:.6g} "
                         f"(worse by {worse:+.3f}), spread {a['spread']:.3f}/{b['spread']:.3f}, "
                         f"bound {bound}")
    return ok, lines


def baseline(args) -> int:
    first, second, traced = (json.loads(Path(p).read_text())
                             for p in (args.first, args.second, args.traced))
    ok, lines = compare(first, second)
    per_layer = {
        name: {k: v["median"] for k, v in w["metrics"].items()}
        for name, w in traced["workloads"].items()
    }
    out = {
        "provenance": first["provenance"],
        "command": SPEC["command"],
        "run_seconds": SPEC["run_seconds"],
        "end_to_end": {f"seeds {first['seeds']}": first, f"seeds {second['seeds']}": second},
        "agreement": {"ok": ok, "lines": lines},
        "per_layer": {"seeds": traced["seeds"], "medians": per_layer},
    }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    print("\n".join(lines))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,3,5")
    r.add_argument("--workloads", nargs="*")
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out", required=True)
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    b = sub.add_parser("baseline")
    b.add_argument("first")
    b.add_argument("second")
    b.add_argument("--traced", required=True)
    b.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if args.cmd == "run":
        return run(args)
    if args.cmd == "baseline":
        return baseline(args)
    ok, lines = compare(*(json.loads(Path(p).read_text()) for p in (args.first, args.second)))
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
