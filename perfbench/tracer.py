"""Per-layer tracing for the benchmark, installed from outside the program.

Each target is a public function or method of an ``ellog`` module.  The
tracer replaces it in its defining module and in every ``ellog`` module
that bound the same object at import time, so calls through either name
are seen.  Span targets record one span per call (name, start, end,
parent); the arithmetic kernels are called too often for that and keep
only an aggregate call count and inclusive time.  Spans stay in memory
until the run ends.

A layer's self time is the duration of its spans minus the part covered
by their direct child spans.  Kernel time is not subtracted, so a span's
self time includes the kernels it called.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


def _not_raised(args, result, exc) -> bool:
    return exc is None


def _is_true(args, result, exc) -> bool:
    return exc is None and result is True


def _has_relation(args, result, exc) -> bool:
    return exc is None and result[0] is not None


def _dlog_verified(args, result, exc) -> bool:
    return exc is None and result.verified


def _function_key(args):
    fun = args[0]
    return (fun.x1, fun.n0.coeffs, fun.n1.coeffs, fun.e)


@dataclass(frozen=True)
class Target:
    """One traced entry point: ``module.qualname`` reported as ``name``."""

    module: str
    qualname: str
    kernel: bool = False
    # (args, result, exception) -> whether the call succeeded, for
    # targets whose outcome feeds a ratio
    outcome: Callable | None = None
    # args -> hashable input key, for targets reporting unique_frac
    key: Callable | None = None
    name: str | None = None

    @property
    def label(self) -> str:
        short = self.module.rsplit(".", 1)[-1]
        return f"{short}.{self.name or self.qualname}"


TARGETS = [
    Target("ellog.algebra", "Poly.__mul__", kernel=True, name="Poly.mul"),
    Target("ellog.algebra", "Poly.divmod", kernel=True),
    Target("ellog.algebra", "ExtFieldDesc.mul", kernel=True),
    Target("ellog.algebra", "ExtFieldDesc.pow_"),
    Target("ellog.algebra", "poly_factor"),
    Target("ellog.algebra", "poly_irreducibles"),
    Target("ellog.curve", "phi_star"),
    Target("ellog.divisor", "divisor_of", key=_function_key),
    Target("ellog.divisor", "split_ordinate"),
    Target("ellog.divisor", "orbit_places"),
    Target("ellog.psi", "psi_eval"),
    Target("ellog.psi", "verify_relation", outcome=_is_true),
    Target("ellog.harvest", "FactorBase.extend_to"),
    Target("ellog.harvest", "pair_divisors"),
    Target("ellog.harvest", "relation_from_pair", outcome=_has_relation),
    Target("ellog.harvest", "harvest_m1"),
    Target("ellog.harvest", "extend_h4"),
    Target("ellog.harvest", "extend_h5"),
    Target("ellog.harvest", "read_relations"),
    Target("ellog.linalg", "kernel_mod_prime"),
    Target("ellog.linalg", "kernel_mod_prime_power"),
    Target("ellog.linalg", "solve_affine_mod"),
    Target("ellog.solve", "solve_core"),
    Target("ellog.solve", "verify_log_table"),
    Target("ellog.solve", "dlog", outcome=_dlog_verified),
    Target("ellog.solve", "log_r_of_generator"),
    Target("ellog.solve", "classical_split"),
    Target("ellog.solve", "bilinear_descend", outcome=_not_raised),
    Target("ellog.solve", "bsgs_oracle"),
    Target("ellog.solve", "read_logs"),
    Target("ellog.basis", "find_basis"),
    Target("ellog.basis", "build_basis"),
]


class Tracer:
    """Span and counter recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list = []          # [name, start, end, parent index]
        self._stack: list[int] = []
        self.kernel: dict[str, list] = {}   # name -> [calls, inclusive s]
        self.ok: dict[str, int] = defaultdict(int)
        self.keys: dict[str, set] = defaultdict(set)
        self._undo: list = []

    # -- wrappers --------------------------------------------------------

    def _span(self, t: Target, fn):
        name, spans, stack = t.label, self.spans, self._stack
        outcome, key = t.outcome, t.key
        ok, keys = self.ok, self.keys
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            if key is not None:
                keys[name].add(key(args))
            result = exc = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if outcome is not None and outcome(args, result, exc):
                    ok[name] += 1

        return traced

    def _kernel(self, t: Target, fn):
        rec = self.kernel.setdefault(t.label, [0, 0.0])
        clock = time.perf_counter

        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[0] += 1
                rec[1] += clock() - t0

        return timed

    # -- patching --------------------------------------------------------

    def install(self, targets=TARGETS):
        for t in targets:
            mod = sys.modules[t.module]
            wrap = self._kernel if t.kernel else self._span
            if "." in t.qualname:
                cls_name, attr = t.qualname.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[attr]
                setattr(cls, attr, wrap(t, orig))
                self._undo.append((cls, attr, orig))
                continue
            orig = getattr(mod, t.qualname)
            new = wrap(t, orig)
            for name, other in list(sys.modules.items()):
                if not name.startswith("ellog") or other is None:
                    continue
                for attr, val in list(vars(other).items()):
                    if val is orig:
                        setattr(other, attr, new)
                        self._undo.append((other, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results ---------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """{label: {calls, self_s | total_s, ok?, unique?}} over all spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict] = {}
        for i, (name, t0, t1, _) in enumerate(self.spans):
            rec = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            rec["calls"] += 1
            rec["self_s"] += (t1 - t0) - child[i]
        for name, (calls, total) in self.kernel.items():
            out[name] = {"calls": calls, "total_s": total}
        for name, n in self.ok.items():
            out[name]["ok"] = n
        for name, ks in self.keys.items():
            out[name]["unique"] = len(ks)
        return out

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def merge(summaries: list[dict]) -> dict[str, dict]:
    """Sum per-label counters over several traced processes."""
    out: dict[str, dict] = {}
    for summ in summaries:
        for name, rec in summ.items():
            acc = out.setdefault(name, {})
            for k, v in rec.items():
                acc[k] = acc.get(k, 0) + v
    return out


def layer_metric(summary: dict, metric: str) -> float:
    """Value of a per-layer metric such as ``divisor.divisor_of.self_s``.

    Missing layers read as zero work.  Derived names: ``unique_frac``
    (distinct inputs over calls), ``false`` and ``failed`` (calls that did
    not succeed), ``smooth_frac`` and ``ok_frac`` (successes over calls).
    """
    label, field = metric.rsplit(".", 1)
    rec = summary.get(label, {})
    calls = rec.get("calls", 0)
    if field == "unique_frac":
        return rec.get("unique", 0) / calls if calls else 0.0
    if field in ("false", "failed"):
        return calls - rec.get("ok", 0)
    if field in ("smooth_frac", "ok_frac"):
        return rec.get("ok", 0) / calls if calls else 0.0
    return rec.get(field, 0)
