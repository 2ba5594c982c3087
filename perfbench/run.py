#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train_small --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate traced
run. A full record (provenance, diagnostics, and with ``--trace 1`` the spans
of one step) is written to ``perfbench/results/``.

Host speed. Fixed reference work, which never calls the program, runs
between steps. Step times, and the message rate derived from them, are
reported at reference speed: wall time scaled by the reference work's nominal
time over its time measured nearby. On a shared host whose speed drifts by a
fifth or more within minutes, this is what makes two runs comparable. The raw
wall times and the reference time itself are kept in the record as host-speed
diagnostics. Set-up time is reported as measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("train_small", "train_deploy", "mean_est", "wire_round")

# The reference kernel runs between steps once this much time has passed
# since its last run, and a step is scaled by the median of the REF_WINDOW
# samples nearest to it in time.
REF_EVERY_S = 0.1
REF_WINDOW = 5
SETUP_REPEATS = 7
# A run goes on past --seconds until the tail percentile has ten samples
# beyond it, but never past this many times --seconds.
MAX_OVERRUN = 3.0


def _ref_objects():
    """Python object churn: tuples, strings and a dict of 8k entries."""
    objs = [(i, float(i), str(i)) for i in range(8_000)]
    table = {o[2]: o for o in objs}
    return sum(table[str(i * 7919 % 8_000)][1] for i in range(8_000))


def _ref_small_numpy():
    """Small numpy calls driven from a Python loop."""
    import numpy as np

    v = np.linspace(-1.0, 1.0, 64)
    return sum(float(np.sum(np.abs(v * (1.0 + i * 1e-3)))) for i in range(700))


def _ref_arrays():
    """Array work on a few MB: a cumulative sum and a broadcast comparison."""
    import numpy as np

    rows = np.arange(256 * 128, dtype=np.float64).reshape(256, 128) % 7.0
    cum = np.cumsum(rows, axis=1)
    return int((rows[:, :64, None] >= cum[:, None, :]).sum())


def _ref_memory():
    """Fresh arrays of 8 MB: larger than a core's L2 cache, like the samplers'
    temporaries, so it slows when other tenants contend for the shared cache."""
    import numpy as np

    a = np.arange(1_000_000, dtype=np.float64)
    return float(np.sum(a * 0.5))


def _ref_integers():
    """A pure-Python integer loop."""
    x = 0
    for i in range(50_000):
        x = (x * 31 + i) % 1_000_003
    return x


# Each reference part with its median time in ms on the host the benchmark
# was tuned on (2-core Intel Xeon VM, Python 3.11, numpy 2.4); only the ratio
# of this to the time measured matters. Each workload names its parts.
REF_PARTS = {
    "objects": (_ref_objects, 5.5),
    "small_numpy": (_ref_small_numpy, 5.2),
    "arrays": (_ref_arrays, 4.6),
    "memory": (_ref_memory, 6.7),
    "integers": (_ref_integers, 6.2),
}


def ref_kernel(parts) -> float:
    """Seconds taken by the reference work; it never calls the program."""
    t0 = time.perf_counter()
    for name in parts:
        REF_PARTS[name][0]()
    return time.perf_counter() - t0


def ref_nominal_s(parts) -> float:
    return 1e-3 * sum(REF_PARTS[name][1] for name in parts)


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be a non-negative integer")
    return value


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=_seed, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_program():
    """Import numpy (with BLAS threads capped) and cldp from this checkout's src/."""
    for var in BLAS_VARS:
        os.environ[var] = str(NPROC)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import cldp
    except ImportError as exc:
        sys.exit(f"error: cannot import the program from {ROOT / 'src'}: {exc}")
    if Path(cldp.__file__).resolve().parent.parent != (ROOT / "src").resolve():
        sys.exit(f"error: cldp was imported from {cldp.__file__}, not from {ROOT / 'src'}")
    import warnings

    # Run-level diagnostics of the program, not failures.
    for name in ("ClippingWarning", "AmplificationWarning"):
        category = getattr(cldp, name, None)
        if category is not None:
            warnings.simplefilter("ignore", category)


class Run:
    """Steps of one workload, timed against the reference kernel."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.ref_parts = wl.ref_parts
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.refs: list[tuple[float, float]] = []  # (time taken, seconds)
        self.steps: list[tuple[str, float, float]] = []  # (kind, wall s, midpoint)
        for _ in range(REF_WINDOW // 2):
            self._ref()

    def _ref(self) -> None:
        self.refs.append((time.perf_counter(), ref_kernel(self.ref_parts)))

    def step(self, i: int, kind: str, call) -> None:
        """Time one step, sample the reference kernel if due, then check it."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = call(i)
        except Exception:  # a failed step is counted, and the run goes on
            self._fail(f"step {i} raised:\n{traceback.format_exc(limit=4)}")
            return
        t1 = time.perf_counter()
        self.steps.append((kind, t1 - t0, 0.5 * (t0 + t1)))
        if t1 - self.refs[-1][0] >= REF_EVERY_S:
            self._ref()
        try:
            problems = self.wl.check(i, out)
        except Exception:
            problems = [f"check raised:\n{traceback.format_exc(limit=4)}"]
        if problems:
            self._fail(f"step {i}: " + "; ".join(problems))

    def times(self, kind: str) -> list[tuple[float, float]]:
        """(wall s, ref-speed s) of every completed step of one kind.

        Single reference samples are too noisy to scale by, and the host's
        speed drifts more slowly than the window of samples used instead.
        """
        nominal = ref_nominal_s(self.ref_parts)
        out = []
        for k, wall, mid in self.steps:
            if k == kind:
                near = sorted(self.refs, key=lambda r: abs(r[0] - mid))[:REF_WINDOW]
                ref = statistics.median(r[1] for r in near)
                out.append((wall, wall * nominal / ref))
        return out

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def loop(self, seconds: float, min_steps: int, kinds) -> None:
        """Run steps back to back, cycling through kinds, for the given time."""
        start = time.perf_counter()
        i = 0
        while True:
            elapsed = time.perf_counter() - start
            n = min(sum(s[0] == k for s in self.steps) for k, _ in kinds)
            if elapsed >= seconds * MAX_OVERRUN or (elapsed >= seconds and n >= min_steps):
                break
            kind, call = kinds[i % len(kinds)]
            self.step(i, kind, call)
            i += 1
        for _ in range(REF_WINDOW // 2):
            self._ref()


def _setup_seconds(args) -> list[float]:
    """Set the workload up in fresh processes; seconds each.

    A probe's set-up time runs from just before it is spawned to the end of
    its warm-up step, as the probe reads the same system-wide monotonic clock.
    Set-up is mostly process start and imports, whose time does not follow
    the reference work, so it is reported as measured.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    walls = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, check=True, timeout=150, stdout=subprocess.PIPE,
                              text=True, cwd=ROOT)
        walls.append(float(proc.stdout.split()[-1]) - t0)
    return walls


def _percentile(values, pct: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), pct))


def _end_to_end(run: Run, wl, setup_walls) -> dict:
    steps = run.times("plain")
    per_round = [s / wl.rounds_per_step for _, s in steps]
    busy = sum(s for _, s in steps)
    return {
        "setup_s": (statistics.median(setup_walls), "s"),
        "step_ms_p50": (1e3 * statistics.median(per_round), "ms"),
        "step_ms_tail": (1e3 * _percentile(per_round, wl.tail_pct), "ms"),
        "msgs_per_s": (wl.msgs / busy if busy else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "payload_bits_per_msg": (wl.payload_bits / max(wl.msgs, 1), "bit"),
        "frame_bytes_per_msg": (wl.frame_bytes / max(wl.msgs, 1), "byte"),
        "ok_frac": ((run.attempted - run.failed) / run.attempted, "fraction"),
    }


def _per_layer(run: Run, tracer) -> tuple[dict, list[str]]:
    import tracer as tr

    traced = run.times("traced")
    plain = run.times("plain")
    n = max(len(traced), 1)
    out = {}
    for name in tr.span_names():
        out[f"{name}.calls_per_step"] = (tracer.calls.get(name, 0) / n, "count")
        out[f"{name}.self_ms_per_step"] = (1e3 * tracer.self_s.get(name, 0.0) / n, "ms")
    clips = tracer.calls.get("linalg.clip", 0)
    out["linalg.clip.shrunk_frac"] = (tracer.clip_shrunk / clips if clips else 0.0, "fraction")
    e2e = tracer.calls.get("accountant.end_to_end", 0)
    out["accountant.end_to_end.failed_frac"] = (tracer.e2e_failed / e2e if e2e else 0.0, "fraction")
    total = sum(w for w, _ in traced)
    for layer in tr.LAYERS:
        own = sum(v for k, v in tracer.self_s.items() if k.split(".")[0] == layer)
        out[f"{layer}.self_share"] = (own / total if total else 0.0, "fraction")
    pairs = [t[0] / p[0] for t, p in zip(traced, plain)]
    out["trace.overhead_frac"] = (statistics.median(pairs) if pairs else 0.0, "ratio")
    missing = sorted({
        ".".join(name.split(".")[:2]) for name in tr.span_names()
    } - tracer.observed)
    return out, missing


def _provenance(args, run: Run, setup_walls) -> dict:
    import numpy as np

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    ref_ms = 1e3 * statistics.median(r[1] for r in run.refs)
    nominal_ms = 1e3 * ref_nominal_s(run.ref_parts)
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": NPROC,
        "cpu_model": cpu,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "steps": {k: sum(s[0] == k for s in run.steps) for k in ("plain", "traced")},
        "tail_percentile": run.wl.tail_pct,
        "rounds_per_step": run.wl.rounds_per_step,
        "setup_repeats": len(setup_walls),
        # Host-speed diagnostic: the reference kernel's median time this run
        # and the factor every reported time was scaled by.
        "ref_parts": list(run.ref_parts),
        "ref_kernel_ms": ref_ms,
        "ref_nominal_ms": nominal_ms,
        "host_speed": nominal_ms / ref_ms,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    import tracer as tr
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        wl = cls(args.seed)
        wl.step(workloads.WARMUP_STEP)
        print(time.monotonic())
        return 0

    setup_walls = [] if args.trace else _setup_seconds(args)
    wl = cls(args.seed)
    wl.step(workloads.WARMUP_STEP)
    run = Run(wl)
    min_steps = math.ceil(10.0 / (1.0 - wl.tail_pct / 100.0))
    if args.trace:
        tracer = tr.Tracer()
        traced = lambda i: tracer.run(wl.step, i, record_spans=not tracer.recorded)
        run.loop(args.seconds, 2, [("plain", wl.step), ("traced", traced)])
        metrics, missing = _per_layer(run, tracer)
    else:
        tracer, missing = None, []
        run.loop(args.seconds, min_steps, [("plain", wl.step)])
        if not run.steps:
            sys.exit("error: every step failed:\n" + "\n".join(run.errors))
        metrics = _end_to_end(run, wl, setup_walls)
    problems, notes = wl.finish()
    for p in problems:
        run.errors.append(f"run check: {p}")
    correct = run.failed == 0 and not problems and bool(run.steps)

    prov = _provenance(args, run, setup_walls)
    plain = run.times("plain")
    diagnostics = {
        "wall_step_ms_p50": 1e3 * statistics.median(w for w, _ in plain) / wl.rounds_per_step
        if plain else None,
        "setup_s_each": setup_walls,
        "ref_speed_step_ms": {k: [round(1e3 * t, 4) for _, t in run.times(k)]
                              for k in ("plain", "traced")},
        "not_observed": missing,
        **notes,
    }
    record = {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "diagnostics": diagnostics,
        "provenance": prov,
    }
    if tracer is not None:
        record["spans_of_first_traced_step"] = tracer.span_records()
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"steps {prov['steps']}  tail p{wl.tail_pct}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<50} {value:>14.6g} {unit}")
    for name in missing:
        print(f"  {name:<50} {'not observed':>14}")
    for err in run.errors:
        print(f"  FAILED {err}", file=sys.stderr)
    print("diagnostics " + json.dumps(diagnostics))
    print("provenance " + json.dumps(prov))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
