"""Outside-in tracing of covercat's layers.

Nothing under ``src/`` is edited: the tracer replaces functions and
methods with wrappers at run time.  A function imported by name into
another module (``cli`` imports ``triangle_from``, ``classify`` imports
``conjugate_pair``, ...) is bound in several namespaces, so every
``covercat`` module attribute that *is* the original object is replaced.
Modules are resolved with ``importlib`` because the package attribute
``covercat.classify`` is the ``classify`` function, not the module.

Wrappers come in four kinds, chosen per layer by call frequency:

``count``  count calls only (the hottest scalar kernels);
``timed``  count calls and sum self time;
``span``   like ``timed``, and also record a span (name, start, end,
           parent span, request id) kept in memory and written at exit;
``gen``    a generator function: count creations and yielded items, and
           sum self time spent inside ``next()``.

Self time is a frame's duration minus the durations of the wrapped
frames it encloses, so the per-layer ``self_s`` values add up to the
traced wall time of the requests (less what no wrapper encloses).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# (module, qualified name, kind, metric stem).  The stem is
# ``<module>.<function>``; dunder methods are named after the operator.
LAYERS = (
    ("scalars", "cyclotomic_reduce", "timed", "scalars.cyclotomic_reduce"),
    ("scalars", "Cyclotomic.__mul__", "timed", "scalars.Cyclotomic.mul"),
    ("scalars", "RootOfUnity.__mul__", "count", "scalars.RootOfUnity.mul"),
    ("frobenius", "cover_compose", "timed", "frobenius.cover_compose"),
    ("frobenius", "cover_morphism", "timed", "frobenius.cover_morphism"),
    ("frobenius", "EndMatrix.compose", "timed", "frobenius.EndMatrix.compose"),
    ("frobenius", "_split_matrix_factorization", "span",
     "frobenius._split_matrix_factorization"),
    ("frobenius", "_elementary", "count", "frobenius._elementary"),
    ("frobenius", "make_mf", "span", "frobenius.make_mf"),
    ("frobenius", "hom_mf", "span", "frobenius.hom_mf"),
    ("frobenius", "universal_sequence", "span", "frobenius.universal_sequence"),
    ("frobenius", "triangle_from", "span", "frobenius.triangle_from"),
    ("frobenius", "universal_virtual_triangle", "span",
     "frobenius.universal_virtual_triangle"),
    ("frobenius", "rotate_triangle", "span", "frobenius.rotate_triangle"),
    ("frobenius", "verify_axiom_samples", "span",
     "frobenius.verify_axiom_samples"),
    ("classify", "classify", "span", "classify.classify"),
    ("classify", "strongly_isomorphic", "span", "classify.strongly_isomorphic"),
    ("classify", "enumerate_pairs", "gen", "classify.enumerate_pairs"),
    ("cn", "conjugate_pair", "timed", "cn.conjugate_pair"),
    ("cn", "commutes", "timed", "cn.commutes"),
    ("cn", "natural_iso", "timed", "cn.natural_iso"),
    ("cn", "continuity_factor", "timed", "cn.continuity_factor"),
    ("normal_forms", "normalize_pair", "span", "normal_forms.normalize_pair"),
    ("normal_forms", "is_indecomposable", "timed",
     "normal_forms.is_indecomposable"),
    ("normal_forms", "enumerate_centralizer", "gen",
     "normal_forms.enumerate_centralizer"),
    ("cli", "main", "span", "cli.main"),
)


def _sum_hook(terms, *_):
    """A true cyclotomic sum: more than one distinct nonzero exponent."""
    return len({r.exponent for r, c in terms.items() if c}) > 1


def _match_hook(left, right, *_):
    """(entry pairs with a matching inner index, entry pairs visited)."""
    inner: dict = {}
    for (k, _c) in right.data:
        inner[k] = inner.get(k, 0) + 1
    matched = sum(inner.get(k, 0) for (_r, k) in left.data)
    return matched, len(left.data) * len(right.data)


class Tracer:
    """Per-layer counters, self times and spans for one worker process."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # stem -> [calls, self_s, items]
        self.ratios: dict[str, list] = {}  # metric -> [hits, base]
        self.spans: list = []
        self.request_id = None
        self._child = [0.0]  # enclosed wrapped time, one slot per frame
        self._span_ids = [None]
        self._restore: list = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for name, m in sorted(sys.modules.items())
            if name == "covercat" or name.startswith("covercat.")
        ]
        for mod_name, qualname, kind, stem in LAYERS:
            module = importlib.import_module(f"covercat.{mod_name}")
            owner, attr = module, qualname
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            wrapper = self._wrap(kind, stem, original)
            self._patch(owner, attr, original, wrapper)
            if owner is module:
                for other in modules:
                    for name, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, name, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def bindings(self, stem: str) -> int:
        """How many namespaces now bind the wrapper for ``stem``."""
        return sum(
            1 for owner, attr, _ in self._restore
            if getattr(getattr(owner, attr), "__trace_stem__", None) == stem
        )

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, kind, stem, fn):
        stat = self.stats.setdefault(stem, [0, 0.0, 0])
        if kind == "count":
            def wrapper(*args, **kwargs):
                stat[0] += 1
                return fn(*args, **kwargs)
        elif kind == "gen":
            wrapper = self._gen_wrapper(stat, fn)
        else:
            wrapper = self._frame_wrapper(stem, stat, fn, kind == "span")
        wrapper = functools.wraps(fn)(wrapper)
        wrapper.__trace_stem__ = stem
        return wrapper

    def _frame_wrapper(self, stem, stat, fn, span):
        child, ids, spans = self._child, self._span_ids, self.spans
        tracer = self
        before = after = None
        if stem == "scalars.cyclotomic_reduce":
            sums = self.ratios.setdefault(f"{stem}.sum_ratio", [0, 0])

            def before(*args):
                sums[0] += _sum_hook(*args)
                sums[1] += 1
        elif stem == "frobenius.EndMatrix.compose":
            matches = self.ratios.setdefault(f"{stem}.match_ratio", [0, 0])

            def before(*args):
                hit, base = _match_hook(*args)
                matches[0] += hit
                matches[1] += base
        elif stem == "classify.strongly_isomorphic":
            found = self.ratios.setdefault(f"{stem}.hit_ratio", [0, 0])

            def after(result):
                found[0] += result is not None
                found[1] += 1

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            if span:
                sid = len(spans)
                spans.append(None)
                parent = ids[-1]
                ids.append(sid)
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                stat[0] += 1
                stat[1] += dt - child.pop()
                child[-1] += dt
                if span:
                    ids.pop()
                    spans[sid] = (stem, t0, t1, parent, tracer.request_id)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _gen_wrapper(self, stat, fn):
        child = self._child

        def wrapper(*args, **kwargs):
            stat[0] += 1
            it = fn(*args, **kwargs)
            while True:
                child.append(0.0)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = perf_counter() - t0
                    stat[1] += dt - child.pop()
                    child[-1] += dt
                stat[2] += 1
                yield item

        return wrapper

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "ratios": {k: list(v) for k, v in self.ratios.items()},
            "spans": len(self.spans),
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (name, t0, t1, parent, rid) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": t0, "end": t1,
                    "parent": parent, "request": rid,
                }) + "\n")
