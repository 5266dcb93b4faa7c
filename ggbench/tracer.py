"""Layer tracing from outside the library.

``Tracer.install`` replaces every public function of the ggsys layer
modules with a wrapper that records a span (name, start, end, parent, op)
and the counters named in ``LAYER_METRICS``.  A name bound elsewhere by
``from .gammafn import rgamma`` is replaced in every module that holds it,
and the ``TruncatedSeries`` methods are wrapped on the class.  Spans stay in
memory; ``metrics`` folds them into per-layer numbers and ``write_spans``
dumps them when the run ends.  The library itself is not modified.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("model", "gammafn", "series", "verify", "lattice", "contour", "resonance", "distributions", "cli")

# Series spans split into tabulation and evaluation work.
_TABULATE = {"series.reduced_series", "series.mixed_gamma_series_eval", "series.gauss_coefficients",
             "series.TruncatedSeries.__init__"}
_EVAL = {"series.gg_series_eval", "series.reduced_series_eval", "series.gauss_series_eval",
         "series.TruncatedSeries.value", "series.TruncatedSeries.derivative",
         "series.TruncatedSeries.terms", "series.TruncatedSeries.coefficient"}
_PAIRINGS = {"gamma_plus_pair", "gamma_minus_pair", "cm_pair", "gg_distribution_pair"}
_SERIES_METHODS = ("__init__", "value", "derivative", "terms", "coefficient")

# (name, unit) of every per-layer metric, in the order they are reported.
LAYER_METRICS = (
    ("gammafn.rgamma.calls", "count"),
    ("gammafn.rgamma.points", "count"),
    ("gammafn.rgamma.self_s", "s"),
    ("series.tabulations", "count"),
    ("series.terms", "count"),
    ("series.tabulate.self_s", "s"),
    ("series.distinct_params_frac", "fraction"),
    ("series.eval.calls", "count"),
    ("series.eval.self_s", "s"),
    ("verify.checks", "count"),
    ("verify.evaluator_calls", "count"),
    ("verify.self_s", "s"),
    ("model.calls", "count"),
    ("model.bases_enumerated", "count"),
    ("model.self_s", "s"),
    ("lattice.calls", "count"),
    ("lattice.self_s", "s"),
    ("lattice.quotient.reps", "count"),
    ("lattice.max_entry_digits", "digits"),
    ("resonance.calls", "count"),
    ("resonance.self_s", "s"),
    ("contour.calls", "count"),
    ("contour.nodes", "count"),
    ("contour.self_s", "s"),
    ("distributions.pairings", "count"),
    ("distributions.phi_probes", "count"),
    ("distributions.distinct_probe_frac", "fraction"),
    ("distributions.self_s", "s"),
    ("cli.ops", "count"),
    ("cli.self_s", "s"),
    ("cli.report_bytes", "bytes"),
)


def _max_digits(rows) -> int:
    best = 0
    for row in rows:
        for v in row:
            best = max(best, abs(int(v)))
    return len(str(best))


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent id, op, self seconds]
        self._stack: list = []  # [span id, child seconds, name] per open span
        self.op = -1
        self.counts = defaultdict(float)
        self._op_params: set = set()
        self._distinct_params = 0
        self._distinct_probes = 0
        self._originals: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"ggsys.{layer}") for layer in LAYERS]
        holders = [m for name, m in sys.modules.items() if name == "ggsys" or name.startswith("ggsys.")]
        replaced = {}
        for layer, mod in zip(LAYERS, modules):
            for name, fn in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                replaced[id(fn)] = self._wrap(fn, f"{layer}.{name}")
        for holder in holders:
            for name, obj in list(vars(holder).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    self._originals.append((holder, name, obj))
                    setattr(holder, name, replaced[id(obj)])
        cls = modules[LAYERS.index("series")].TruncatedSeries
        for meth in _SERIES_METHODS:
            fn = vars(cls)[meth]
            self._originals.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(fn, f"series.TruncatedSeries.{meth}"))
        self._test_function = modules[LAYERS.index("distributions")].TestFunction

    def uninstall(self) -> None:
        for holder, name, fn in reversed(self._originals):
            setattr(holder, name, fn)
        self._originals.clear()

    def begin_op(self, op: int) -> None:
        self.op = op
        self._op_params = set()

    # -- spans --------------------------------------------------------------

    def _wrap(self, fn, name: str):
        short = name.rsplit(".", 1)[-1]
        post = getattr(self, "_post_" + short.strip("_"), None)
        if name.startswith("verify."):
            post = self._post_verify
        pre = None
        if short in _PAIRINGS:
            pre = functools.partial(self._pre_pairing, 0 if short.startswith("gamma_") else 2)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(args, kwargs)
            sid = len(spans)
            spans.append(None)
            parent, pname = (stack[-1][0], stack[-1][2]) if stack else (-1, "")
            frame = [sid, 0.0, name]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                spans[sid] = [name, t0, t1, parent, self.op, t1 - t0 - frame[1]]
            if post is not None:
                post(args, result, pname)
            return result

        return wrapper

    # -- counters -----------------------------------------------------------

    def _post_verify(self, args, result, pname):
        """Residual reports leaving the verify layer."""
        if pname.startswith("verify."):
            return
        items = result if isinstance(result, tuple) else (result,)
        for item in items:
            if type(item).__name__ == "ResidualReport" or hasattr(item, "report"):
                self.counts["checks"] += 1

    def _post_rgamma(self, args, result, pname):
        self.counts["rgamma.points"] += np.size(args[0])

    def _post_init(self, args, result, pname):
        series = args[0]
        spec = series.spec
        key = (spec.system.base.parent.omega.tobytes(), spec.system.base.I, spec.k,
               spec.truncation, spec.mode, spec.partition, series.beta.tobytes())
        self.counts["tabulations"] += 1
        self.counts["terms"] += len(series.exponents)
        if key not in self._op_params:
            self._op_params.add(key)
            self._distinct_params += 1

    def _post_enumerate_bases(self, args, result, pname):
        self.counts["bases"] += len(result)

    def _post_lattice_quotient(self, args, result, pname):
        self.counts["reps"] += len(result.representatives)
        self._digits(result.representatives)

    def _post_hermite_normal_form(self, args, result, pname):
        self._digits(result)

    def _post_integer_kernel(self, args, result, pname):
        self._digits(result)

    def _post_smith_normal_form(self, args, result, pname):
        self._digits([result[0]])
        self._digits(result[1])

    def _post_orthogonal_lattice(self, args, result, pname):
        self._digits(result.basis_rows)

    def _post_project_lattice(self, args, result, pname):
        self._digits(result.basis_rows)

    def _digits(self, rows):
        self.counts["digits"] = max(self.counts["digits"], _max_digits(rows))

    def _post_hankel_integral(self, args, result, pname):
        self.counts["nodes"] += result.nodes_used

    _post_shifted_plane_integral = _post_hankel_integral
    _post_euler_segment_integral = _post_hankel_integral

    def _pre_pairing(self, slot, args, kwargs):
        """Count probes of the test function, distinct points per pairing.
        ``slot`` is the position of ``phi`` in the pairing's signature."""
        args = list(args)
        phi = kwargs["phi"] if "phi" in kwargs else args[slot]
        inner = phi.fn if isinstance(phi, self._test_function) else phi
        seen = set()
        counts = self.counts
        tracer = self

        def probe(z):
            counts["probes"] += 1
            key = complex(z) if np.ndim(z) == 0 else tuple(np.asarray(z).ravel().tolist())
            if key not in seen:
                seen.add(key)
                tracer._distinct_probes += 1
            return inner(z)

        wrapped = self._test_function(probe) if isinstance(phi, self._test_function) else probe
        if "phi" in kwargs:
            kwargs = dict(kwargs, phi=wrapped)
        else:
            args[slot] = wrapped
        return tuple(args), kwargs

    # -- results ------------------------------------------------------------

    def metrics(self, report_bytes: int) -> dict:
        spans = self.spans
        self_s = defaultdict(float)
        calls = defaultdict(int)
        tab_self = eval_self = 0.0
        eval_calls = evaluator_calls = checks = pairings = rgamma_calls = cli_ops = 0
        for name, _t0, _t1, parent, _op, own in spans:
            layer = name.split(".", 1)[0]
            self_s[layer] += own
            pname = spans[parent][0] if parent >= 0 else ""
            if not pname.startswith(layer + "."):
                calls[layer] += 1
            if name == "gammafn.rgamma":
                rgamma_calls += 1
            elif name in _TABULATE:
                tab_self += own
            elif name in _EVAL:
                eval_self += own
                if pname not in _EVAL:
                    eval_calls += 1
                if pname.startswith("verify."):
                    evaluator_calls += 1
            elif name.rsplit(".", 1)[-1] in _PAIRINGS:
                pairings += 1
            elif name == "cli.main":
                cli_ops += 1
        checks = int(self.counts["checks"])
        tabulations = self.counts["tabulations"]
        probes = self.counts["probes"]
        values = {
            "gammafn.rgamma.calls": rgamma_calls,
            "gammafn.rgamma.points": self.counts["rgamma.points"],
            "gammafn.rgamma.self_s": sum(s[5] for s in spans if s[0] == "gammafn.rgamma"),
            "series.tabulations": tabulations,
            "series.terms": self.counts["terms"],
            "series.tabulate.self_s": tab_self,
            "series.distinct_params_frac": self._distinct_params / tabulations if tabulations else 0.0,
            "series.eval.calls": eval_calls,
            "series.eval.self_s": eval_self,
            "verify.checks": checks,
            "verify.evaluator_calls": evaluator_calls,
            "verify.self_s": self_s["verify"],
            "model.calls": calls["model"],
            "model.bases_enumerated": self.counts["bases"],
            "model.self_s": self_s["model"],
            "lattice.calls": calls["lattice"],
            "lattice.self_s": self_s["lattice"],
            "lattice.quotient.reps": self.counts["reps"],
            "lattice.max_entry_digits": self.counts["digits"],
            "resonance.calls": calls["resonance"],
            "resonance.self_s": self_s["resonance"],
            "contour.calls": calls["contour"],
            "contour.nodes": self.counts["nodes"],
            "contour.self_s": self_s["contour"],
            "distributions.pairings": pairings,
            "distributions.phi_probes": probes,
            "distributions.distinct_probe_frac": self._distinct_probes / probes if probes else 0.0,
            "distributions.self_s": self_s["distributions"],
            "cli.ops": cli_ops,
            "cli.self_s": self_s["cli"],
            "cli.report_bytes": report_bytes,
        }
        return {name: {"value": float(values[name]), "unit": unit} for name, unit in LAYER_METRICS}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, t0, t1, parent, op, own) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, t0, t1, parent, op, own]) + "\n")
