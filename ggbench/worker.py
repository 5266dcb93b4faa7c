"""Drive ggsys in one process: warm up, then run ops on a closed loop.

Started by run.py in a fresh interpreter with the thread pools pinned to one
thread.  It imports ggsys from the checkout's ``src`` directory only, runs
the warm-up ops, then either

* ``--mode timed``: whole rounds of the pool until ``--seconds`` have passed
  (one client, the next op starts when the previous one returned), with
  the reference kernel (reference.py) timed before the first op and after
  every op, or
* ``--mode trace``: the first ``--trace-ops`` ops, each once untraced and
  then once under the layer tracer, with reports written to separate
  directories.  Pairing the two runs op by op keeps slow phases of a shared
  machine out of the overhead figure.

It writes one JSON result file; the parent checks the reports.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

from reference import reference_time


def _load_ggsys(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import ggsys
    import ggsys.cli
    import ggsys.lattice
    import ggsys.model
    import ggsys.series

    if Path(ggsys.__file__).resolve().parent != (src / "ggsys").resolve():
        raise SystemExit(f"ggsys imported from {ggsys.__file__}, not from {src}")
    return ggsys


def _pairs(v) -> list:
    return [float(v.real), float(v.imag)]


def _run_mixed(ggsys, cfg: dict) -> dict:
    """Mixed-gamma series at each (beta, x) of a config, through the library."""
    series = ggsys.series
    A = ggsys.model.vector_set([[complex(*e) if isinstance(e, list) else e for e in row] for row in cfg["omega"]])
    system = ggsys.model.build_reduced_system(ggsys.model.select_base(A, cfg["base"]))
    partition = tuple(tuple(group) for group in cfg["partition"])
    spec = series.SeriesSpec(system, tuple(cfg["k"]), cfg["truncation"], mode="mixed", partition=partition)
    points = []
    for beta, x in zip(cfg["beta"], cfg["x"]):
        val = series.mixed_gamma_series_eval(spec, [complex(*b) for b in beta], [complex(*v) for v in x])
        points.append({"value": _pairs(val.value), "tail_estimate": val.tail_estimate, "terms_used": val.terms_used})
    return {"points": points}


def run_op(ggsys, op: dict, cfg_path: str, out_path: str) -> tuple[int | None, float, str]:
    """Run one op; return (exit code or None on an exception, seconds, error)."""
    kind = op["kind"]
    try:
        if kind == "cli":
            t0 = perf_counter()
            code = ggsys.cli.main(["--config", cfg_path, "--quiet", "--out", out_path])
            return code, perf_counter() - t0, ""
        t0 = perf_counter()
        if kind == "kernel":
            result = {"kernel": ggsys.lattice.integer_kernel(op["matrix"])}
        elif kind == "mixed":
            result = _run_mixed(ggsys, op["config"])
        else:
            raise ValueError(f"unknown op kind {kind!r}")
        dt = perf_counter() - t0
        Path(out_path).write_text(json.dumps(result, sort_keys=True) + "\n", encoding="utf-8")
        return 0, dt, ""
    except SystemExit as exc:  # argparse rejects its arguments this way
        return (exc.code if isinstance(exc.code, int) else None), perf_counter() - t0, repr(exc)
    except Exception as exc:  # an op that raises is recorded as failed
        return None, perf_counter() - t0, f"{type(exc).__name__}: {exc}"


def _record(ggsys, ops, i: int, cfg_dir: Path, out_path: Path) -> dict:
    code, dt, err = run_op(ggsys, ops[i], str(cfg_dir / f"{i}.json"), str(out_path))
    return {"op": i, "exit": code, "seconds": dt, "error": err}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--mode", choices=("timed", "trace"), required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--round-len", type=int, required=True)
    ap.add_argument("--trace-ops", type=int, default=0)
    ap.add_argument("--max-seconds", type=float, required=True)
    args = ap.parse_args(argv)

    ggsys = _load_ggsys(Path(args.root))
    work = Path(args.work)
    manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
    warmup, pool = manifest["warmup"], manifest["pool"]

    warm_dir = work / "out-warmup"
    warm_dir.mkdir()
    t0 = perf_counter()
    warm_records = [_record(ggsys, warmup, i, work / "cfg-warmup", warm_dir / f"{i}.json")
                    for i in range(len(warmup))]
    warmup_s = perf_counter() - t0

    result = {"warmup_s": warmup_s, "warmup": warm_records, "pid": os.getpid()}
    if args.mode == "timed":
        out_dir = work / "out"
        out_dir.mkdir()
        records = []
        for _ in range(3):  # warm the kernel's own code path
            reference_time()
        refs = [reference_time()]
        t_start = perf_counter()
        n = 0
        while True:
            records.append(_record(ggsys, pool, n % len(pool), work / "cfg", out_dir / f"{n}.json"))
            refs.append(reference_time())
            n += 1
            elapsed = perf_counter() - t_start
            if n % args.round_len == 0 and elapsed >= args.seconds:
                break
            if elapsed >= args.max_seconds:
                break
        result.update(records=records, refs=refs, loop_s=perf_counter() - t_start)
    else:
        from tracer import Tracer

        (work / "out").mkdir()
        (work / "out-traced").mkdir()
        tracer = Tracer()
        records, traced = [], []
        t_start = perf_counter()
        for n in range(args.trace_ops):
            if perf_counter() - t_start >= args.max_seconds:
                break
            records.append(_record(ggsys, pool, n, work / "cfg", work / "out" / f"{n}.json"))
            tracer.begin_op(n)
            tracer.install()
            try:
                traced.append(_record(ggsys, pool, n, work / "cfg", work / "out-traced" / f"{n}.json"))
            finally:
                tracer.uninstall()
        report_bytes = sum(p.stat().st_size for p in (work / "out-traced").iterdir())
        tracer.write_spans(work / "spans.jsonl")
        result.update(
            records=records,
            traced_records=traced,
            loop_s=sum(rec["seconds"] for rec in records),
            traced_s=sum(rec["seconds"] for rec in traced),
            layers=tracer.metrics(report_bytes),
            spans=len(tracer.spans),
        )
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
