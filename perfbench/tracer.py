"""Span tracing at the public entry points of the u4class layers.

``Tracer.install`` replaces each target in ``TARGETS``, under every name a
loaded ``u4class`` module binds it to, by a wrapper that records one span
per call: id, name, start, end, parent span id, operation id and the
target's counts.  Spans stay in memory until the pass ends; ``write``
dumps them as JSON lines and ``layer_metrics`` folds them into per-layer
numbers.  Only public entry points are wrapped: a hot inner helper such
as ``gf2._low_bit`` (about 761k calls per ring-inflation pass) would cost
more to trace than it does to run.  Nothing under ``src/`` is edited.
"""

import importlib
import json
import sys
import time
import types
from collections import defaultdict


def _mod2_flag(args, kwargs):
    return kwargs.get("mod2", args[5] if len(args) > 5 else False)


def _observe_pivot(args, kwargs, result, pre):
    return {"mod2_calls": int(bool(_mod2_flag(args, kwargs))),
            "nnz_in": len(args[4]), "remainder_nnz": len(result[3])}


def _observe_snf(args, kwargs, result, pre):
    keep = kwargs.get("keep_transforms", args[1] if len(args) > 1 else False)
    return {"eliminating": int(not keep)}


def _observe_mod2_rank(args, kwargs, result, pre):
    return {"answered": int(result is not None)}


def _observe_integer_kernel(args, kwargs, result, pre):
    return {"ncols": args[0].ncols}


def _pre_coboundary(args, kwargs):
    # Resolution.coboundary_matrix memoises on (module, n) in _cob_cache
    res, module, n = args[0], args[1], args[2]
    return n >= 0 and (module, n) in getattr(res, "_cob_cache", {})


def _observe_coboundary(args, kwargs, result, hit):
    return {"cache_hits": int(hit), "nnz_out": 0 if hit else result.nnz}


# (module, attribute or Class.method, span name, pre hook, observe hook)
TARGETS = (
    ("u4class.kernels", "unit_pivot_phase", "kernels.unit_pivot_phase",
     None, _observe_pivot),
    ("u4class.kernels.gf2", "Echelon.insert", "kernels.gf2.insert",
     None, None),
    ("u4class.kernels.gf2", "kernel", "kernels.gf2.kernel", None, None),
    ("u4class.linalg", "integer_kernel", "linalg.integer_kernel",
     None, _observe_integer_kernel),
    ("u4class.linalg", "ColumnLattice.__init__", "linalg.ColumnLattice",
     None, None),
    ("u4class.linalg", "ColumnLattice.contains", "linalg.ColumnLattice",
     None, None),
    ("u4class.linalg", "smith_normal_form", "linalg.smith_normal_form",
     None, _observe_snf),
    ("u4class.linalg", "rank", "linalg.rank", None, None),
    ("u4class.linalg", "mod2_rank", "linalg.mod2_rank",
     None, _observe_mod2_rank),
    ("u4class.linalg", "homology_at", "linalg.homology_at", None, None),
    ("u4class.linalg", "IntMatrix.matmul", "linalg.matmul", None, None),
    ("u4class.linalg", "IntMatrix.mod2_column_masks",
     "linalg.mod2_column_masks", None, None),
    ("u4class.resolutions", "Resolution.coboundary_matrix",
     "resolutions.coboundary_matrix", _pre_coboundary, _observe_coboundary),
    ("u4class.cohomology", "cohomology", "cohomology.cohomology",
     None, None),
    ("u4class.cohomology", "inflation_map", "cohomology.inflation_map",
     None, None),
    ("u4class.cohomology", "mod2_ring", "cohomology.mod2_ring", None, None),
    ("u4class.hypothesis", "thom_simplification_applicable",
     "hypothesis.thom_simplification_applicable", None, None),
    ("u4class.hypothesis", "action_witness_in_degree",
     "hypothesis.action_witness_in_degree", None, None),
    ("u4class.groups", "parse_group", "groups.parse_group", None, None),
    ("u4class.groups", "odd_normal_complement",
     "groups.odd_normal_complement", None, None),
    ("u4class.classify", "classify_group", "classify.classify_group",
     None, None),
    ("u4class.spectral", "ahss_e2_page", "spectral.ahss_e2_page",
     None, None),
    ("u4class.spectral", "lhs_e2_page", "spectral.lhs_e2_page", None, None),
    ("u4class.manifolds", "stably_equivalent",
     "manifolds.stably_equivalent", None, None),
    ("u4class.cli", "main", "cli.main", None, None),
)


class Tracer:
    """Records spans for one pass of a workload in one process."""

    def __init__(self):
        # (id, name, start, end, parent id, operation id, counts)
        self.spans = []
        self.op = None
        self.overflow_fallbacks = 0
        self._stack = [0]
        self._next_id = 1

    def _wrap(self, name, fn, pre, observe):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            before = pre(args, kwargs) if pre is not None else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.op, None))
                raise
            end = clock()
            stack.pop()
            counts = observe(args, kwargs, result, before) \
                if observe is not None else None
            spans.append((sid, name, start, end, parent, self.op, counts))
            return result

        return wrapper

    def install(self):
        """Wrap every target; the u4class modules must already be loaded
        so that names bound by ``from .x import f`` are found."""
        loaded = [m for n, m in list(sys.modules.items())
                  if n == "u4class" or n.startswith("u4class.")]
        for modname, qualname, name, pre, observe in TARGETS:
            module = importlib.import_module(modname)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(name, original, pre, observe))
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(name, original, pre, observe)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        self._count_overflow_fallbacks()

    def _count_overflow_fallbacks(self):
        kernels = sys.modules["u4class.kernels"]
        fast = getattr(kernels, "_fast", None)
        if fast is None:
            return

        def unit_pivot_phase(*args):
            try:
                return fast.unit_pivot_phase(*args)
            except OverflowError:
                self.overflow_fallbacks += 1
                raise

        kernels._fast = types.SimpleNamespace(
            unit_pivot_phase=unit_pivot_phase)

    def write(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, op, counts in self.spans:
                fh.write(json.dumps(
                    {"id": sid, "name": name, "start": start, "end": end,
                     "parent": parent, "op": op, "counts": counts}) + "\n")

    def layer_metrics(self):
        """Calls, self seconds and counts per span name, plus the cache
        and short-cut counts read off which children a span had."""
        child_s = defaultdict(float)
        child_names = defaultdict(set)
        for sid, name, start, end, parent, op, counts in self.spans:
            child_s[parent] += end - start
            child_names[parent].add(name)
        out = defaultdict(float)
        for sid, name, start, end, parent, op, counts in self.spans:
            out[name + ".calls"] += 1
            out[name + ".self_s"] += (end - start) - child_s[sid]
            for key, value in (counts or {}).items():
                out[name + "." + key] += value
            kids = child_names.get(sid, ())
            eliminated = "kernels.unit_pivot_phase" in kids
            if name == "linalg.rank" or (
                    name == "linalg.smith_normal_form"
                    and (counts or {}).get("eliminating")):
                out["linalg.snf_cache_hits"] += not eliminated
            elif name == "linalg.mod2_rank":
                out["linalg.mod2_rank.cache_hits"] += (
                    bool((counts or {}).get("answered")) and not eliminated)
            elif name == "linalg.homology_at":
                out["linalg.rank_sandwich_hits"] += "linalg.rank" not in kids
        out["kernels.unit_pivot_phase.overflow_fallbacks"] = \
            self.overflow_fallbacks
        return dict(out)
