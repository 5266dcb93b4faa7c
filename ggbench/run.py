"""ggsys benchmark: one workload, seeded inputs, checked outputs, one result line.

    python3 ggbench/run.py --workload verify-int --seed 7 --seconds 20 --trace 0

Run from anywhere inside a checkout that holds ``src/ggsys``.  The script

1. times ``setup_s``: a fresh interpreter importing ggsys and ggsys.cli,
   several times, median reported;
2. generates the workload's ops from ``--seed`` (gen.py) and writes their
   configs under ``.ggbench_work/`` in the checkout;
3. starts one worker process (worker.py) with BLAS/OpenMP pinned to one
   thread, which warms up on a separate round of ops and then drives ggsys
   on a closed loop with one client;
4. scales every timing by the machine's speed around it, measured with a
   fixed reference kernel (reference.py), so that the metrics read in
   seconds at one reference speed; the unscaled figures are in the
   conditions line;
5. checks every report (check.py) and prints a line of measurement
   conditions, then the result as the last line of stdout.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` each op of a fixed number of rounds runs once untraced and
once under the layer tracer (tracer.py), the two reports must be
byte-identical, and the result holds the per-layer metrics plus the tracing
overhead.

The exit code is 0 only if every op passed its check.  Without the program
(no ``src/ggsys``) the script exits 2 and prints no result.
"""
from __future__ import annotations

import os

# Pin the thread pools before numpy loads, here and in every child.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import check  # noqa: E402
import gen  # noqa: E402
import reference  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_ROOT = ROOT / ".ggbench_work"
WHY = {w["name"]: w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]}

# Rounds in the timed pool: about four times what one 20 s run uses today,
# so a faster program still meets fresh inputs.  Past the end the loop wraps
# around, and the result line says how often.
POOL_ROUNDS = {"verify-int": 90, "eval-grid": 110, "structure": 70, "quadrature": 70}
# Rounds in a traced run: fixed, so layer counts compare across commits.
TRACE_ROUNDS = {"verify-int": 7, "eval-grid": 9, "structure": 7, "quadrature": 9}
SETUP_SPAWNS = 11
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_frac", "fraction"),
    ("accuracy_margin_digits", "digits"),
)
_DEADLINE_S = 170.0


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _fail(message: str) -> int:
    print(f"ggbench: {message}", file=sys.stderr)
    return 2


def _write_configs(ops: list, directory: Path) -> None:
    directory.mkdir(parents=True)
    for i, op in enumerate(ops):
        if op["kind"] == "cli":
            (directory / f"{i}.json").write_text(json.dumps(op["config"]), encoding="utf-8")


def measure_setup(spawns: int) -> tuple[list[float], list[float]]:
    """Wall times of a fresh interpreter that imports ggsys and its CLI, and
    the reference kernel's times before the first spawn and after each."""
    times = []
    for _ in range(3):  # warm the kernel's own code path
        reference.reference_time()
    refs = [reference.reference_time()]
    for _ in range(spawns):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import ggsys, ggsys.cli"],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=60,
        )
        times.append(perf_counter() - t0)
        refs.append(reference.reference_time())
        if proc.returncode != 0:
            raise RuntimeError(f"import ggsys failed: {proc.stderr.strip()[-500:]}")
    return times, refs


def _conditions(args, warmup_s, result, extra) -> dict:
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "why": WHY[args.workload],
        "input_sizes": gen.SIZES[args.workload],
        "slots": [gen.slot_name(cls, size) for cls, size in gen.ROUNDS[args.workload]],
        "loop": "closed, one client, one worker process",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "nproc": affinity,
        "threads": PINNED_ENV,
        "warmup_ops": len(result.get("warmup", [])),
        "warmup_s": round(warmup_s, 4),
        "run_s": round(result["loop_s"], 4),
        **extra,
    }


def _judge(ops, records, out_dir: Path, oracle_stride: int) -> tuple[int, list, list]:
    """Check every record; return (failed, reasons, accuracy margins per record)."""
    failed, reasons, margins = 0, [], []
    for n, rec in enumerate(records):
        op = ops[rec["op"]]
        path = out_dir / f"{n}.json"
        text = path.read_text(encoding="utf-8") if path.exists() else None
        found = []
        try:
            if rec["exit"] is None:
                raise check.CheckFailure(f"raised {rec['error']}")
            found = check.check_op(op, rec["exit"], text, oracle=rec["op"] % oracle_stride == 0)
        except check.CheckFailure as exc:
            failed += 1
            reasons.append(f"op {rec['op']} ({op['class']}): {exc}")
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            failed += 1
            reasons.append(f"op {rec['op']} ({op['class']}): malformed report ({type(exc).__name__}: {exc})")
        margins.append(found)
    return failed, reasons, margins


# Series oracles cost about as much as the op itself, so eval-grid compares
# the values of every third pool op with scipy; every other check runs on
# every op.
ORACLE_STRIDE = {"eval-grid": 3}


def _per_round(values: list, round_len: int) -> list:
    return [values[k:k + round_len] for k in range(0, len(values) - round_len + 1, round_len)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ggsys benchmark (one workload per run)")
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_begin = perf_counter()

    if not (ROOT / "src" / "ggsys" / "cli.py").is_file():
        return _fail(f"no program to measure: {ROOT / 'src' / 'ggsys'} is missing")

    work = WORK_ROOT / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        # set-up first, before writing the configs can put disk writes
        # under the spawns
        try:
            setup_times, setup_refs = measure_setup(SETUP_SPAWNS)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            return _fail(str(exc))

        rounds = TRACE_ROUNDS[args.workload] if args.trace else POOL_ROUNDS[args.workload]
        warmup = gen.make_warmup(args.workload, args.seed)
        pool = gen.make_pool(args.workload, args.seed, rounds)
        _write_configs(warmup, work / "cfg-warmup")
        _write_configs(pool, work / "cfg")
        (work / "manifest.json").write_text(json.dumps({"warmup": warmup, "pool": pool}), encoding="utf-8")

        cmd = [
            sys.executable, str(BENCH / "worker.py"),
            "--root", str(ROOT), "--work", str(work),
            "--mode", "trace" if args.trace else "timed",
            "--seconds", str(args.seconds),
            "--round-len", str(len(gen.ROUNDS[args.workload])),
            "--trace-ops", str(len(pool)),
        ]
        budget = _DEADLINE_S - (perf_counter() - t_begin)
        # a slowed-down program ends mid-round, leaving time to check reports
        cmd += ["--max-seconds", str(max(args.seconds, budget - 50.0))]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=budget)
        except subprocess.TimeoutExpired:
            return _fail(f"worker did not finish within {budget:.0f} s")
        if proc.returncode != 0:
            return _fail(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
        records = result["records"]

        round_len = len(gen.ROUNDS[args.workload])
        stride = ORACLE_STRIDE.get(args.workload, 1)
        failed, reasons, margins = _judge(pool, records, work / "out", stride)
        w_failed, w_reasons, _ = _judge(warmup, result["warmup"], work / "out-warmup", 1)
        failed += w_failed
        reasons = w_reasons + reasons
        attempted = len(records) + len(result["warmup"])
        extra = {
            "op_samples": len(records),
            "rounds": len(records) // round_len,
            "pool_wraps": (len(records) - 1) // len(pool),
            "margins_counted": sum(len(m) for m in margins),
        }

        if args.trace:
            mismatched = 0
            for n, rec in enumerate(result["traced_records"]):
                a, b = work / "out" / f"{n}.json", work / "out-traced" / f"{n}.json"
                same = a.exists() and b.exists() and a.read_bytes() == b.read_bytes()
                if not same or rec["exit"] != records[n]["exit"]:
                    mismatched += 1
            if mismatched:
                failed += mismatched
                reasons.append(f"{mismatched} traced reports differ from the untraced ones")
            attempted += len(result["traced_records"])
            overhead = result["traced_s"] - result["loop_s"]
            metrics = dict(result["layers"])
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
            metrics["trace.overhead_frac"] = {"value": overhead / result["loop_s"], "unit": "fraction"}
            metrics["trace.spans"] = {"value": float(result["spans"]), "unit": "count"}
            extra.update(traced_s=round(result["traced_s"], 4), reports_identical=mismatched == 0)
            shutil.copyfile(work / "spans.jsonl", WORK_ROOT / f"spans-{args.workload}.jsonl")
        else:
            raw = np.asarray([rec["seconds"] for rec in records])
            # Each op's time at the reference speed (reference.py).
            lat = raw * np.asarray(reference.scales(result["refs"]))
            setup = np.asarray(setup_times) * np.asarray(reference.scales(setup_refs))
            # Every round holds the same slots, so per-round figures are
            # comparable; their medians shrug off bursts of machine noise.
            round_rates = [round_len / rnd.sum() for rnd in _per_round(lat, round_len)]
            round_margins = [min(sum(rnd, [])) for rnd in _per_round(margins, round_len) if any(rnd)]
            values = {
                "setup_s": float(np.median(setup)),
                "ops_per_s": statistics.median(round_rates) if round_rates else len(lat) / lat.sum(),
                "op_p50_s": float(np.percentile(lat, 50)),
                "op_p90_s": float(np.percentile(lat, 90)),
                "peak_rss_mb": result["peak_rss_mb"],
                "ops_ok_frac": (attempted - failed) / attempted,
                "accuracy_margin_digits": statistics.median(round_margins) if round_margins else 0.0,
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
            extra.update(setup_spawns=[round(t, 4) for t in setup_times],
                         ops_beyond_p90=int(np.sum(lat > values["op_p90_s"])),
                         reference_s=reference.REFERENCE_S,
                         reference_median_s=round(statistics.median(result["refs"]), 6),
                         unscaled={"setup_s": round(statistics.median(setup_times), 4),
                                   "op_p50_s": round(float(np.percentile(raw, 50)), 5),
                                   "op_p90_s": round(float(np.percentile(raw, 90)), 5),
                                   "ops_per_s": round(len(raw) / raw.sum(), 4)},
                         accuracy_margin_min=round(min(sum(margins, [])), 4) if any(margins) else None)

        conditions = _conditions(args, result["warmup_s"], result, extra)
        if reasons:
            conditions["failures"] = reasons[:20]
            for line in reasons[:20]:
                print(f"ggbench: FAILED {line}", file=sys.stderr)
        print(json.dumps({"conditions": conditions}, sort_keys=True))
        correct = failed == 0
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
