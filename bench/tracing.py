"""Per-layer counts and times, taken by wrapping lbk's public functions.

``Tracer(lbk)`` replaces each traced function or method with a wrapper that
records a span: its duration, the part of it spent in child spans, and what
the call returned.  A module-level function is replaced under every name any
lbk module holds it by, since ``from .linarith import feasible`` copies the
reference.  ``LambdaScalar`` constructions are only counted, because there
are millions of them.

Spans are folded into per-layer totals as they close; ``snapshot`` and
``delta`` give the totals spent inside one op, so a dump can group them.
"""
from __future__ import annotations

import functools
import sys
from time import perf_counter

# (module, attribute path, layer name, what to record from a call)
#   rows:  number of constraints of the system passed in
#   sat:   the result is a satisfiable Feasibility
#   hit:   the result is True, or not None
#   lines: number of lines of the returned AxiomReport
TRACED = [
    ("linarith", "feasible", "linarith.feasible", ("rows", "sat")),
    ("linarith", "project_interval", "linarith.project_interval", ()),
    ("apartment", "Apartment.region_contains", "apartment.region_contains", ()),
    ("apartment", "Apartment.region_equal", "apartment.region_equal", ("hit",)),
    ("apartment", "Apartment.region_contains_germ", "apartment.region_contains_germ", ()),
    ("apartment", "Apartment.region_contains_point", "apartment.region_contains_point", ()),
    ("apartment", "Apartment.classify_region", "apartment.classify_region", ()),
    ("apartment", "Apartment.metric", "apartment.metric", ()),
    ("rootsystem", "WeylElement.act_point", "rootsystem.act_point", ()),
    ("atlas", "Atlas.transport_point", "atlas.transport_point", ("hit",)),
    ("atlas", "Atlas.transport_germ", "atlas.transport_germ", ()),
    ("atlas", "Atlas.transport_sector", "atlas.transport_sector", ()),
    ("atlas", "validate", "atlas.validate", ()),
    ("axioms", "check_a3", "axioms.check_a3", ("lines",)),
    ("axioms", "check_a4", "axioms.check_a4", ("lines",)),
    ("axioms", "check_a6", "axioms.check_a6", ("lines",)),
    ("axioms", "check_ec", "axioms.check_ec", ("lines",)),
    ("axioms", "check_se", "axioms.check_se", ("lines",)),
    ("axioms", "check_a5", "axioms.check_a5", ("lines",)),
    ("infinity", "infinity_complex", "infinity.infinity_complex", ()),
]

FIELDS = ("calls", "s", "self_s", "rows", "sat", "hit", "lines")


class Tracer:
    """Wraps the TRACED functions of an imported lbk and keeps their totals."""

    def __init__(self, lbk):
        self.totals: dict[str, dict[str, float]] = {}
        self.scalars_built = 0
        self._children = [0.0]  # child-span time of each open span, outermost first
        self._open: dict[str, int] = {}
        self._install(lbk)

    def _install(self, lbk):
        modules = [m for name, m in sys.modules.items() if name == "lbk" or name.startswith("lbk.")]
        for module_name, path, layer, extras in TRACED:
            owner = getattr(lbk, module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._span(layer, original, extras)
            setattr(owner, attr, wrapper)
            if not outer:
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, wrapper)

        scalar = lbk.lexq.LambdaScalar
        init = scalar.__init__

        def counted_init(obj, parts):
            self.scalars_built += 1
            init(obj, parts)

        scalar.__init__ = counted_init

    def _span(self, layer, fn, extras):
        stat = self.totals.setdefault(layer, dict.fromkeys(FIELDS, 0))
        children = self._children
        is_open = self._open
        is_open[layer] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            is_open[layer] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                is_open[layer] -= 1
                inner = children.pop()
                children[-1] += elapsed
                stat["calls"] += 1
                stat["self_s"] += elapsed - inner
                if not is_open[layer]:  # a layer re-entered counts its time once
                    stat["s"] += elapsed
            if "rows" in extras:
                stat["rows"] += len(args[0].constraints)
            if "sat" in extras:
                stat["sat"] += result.sat
            if "hit" in extras:
                stat["hit"] += result is not None and result is not False
            if "lines" in extras:
                stat["lines"] += len(result.lines)
            return result

        return wrapper

    def snapshot(self) -> dict[str, float]:
        """Every running total, keyed ``<layer>.<field>``."""
        snap = {"lexq.scalars_built": self.scalars_built}
        for layer, stat in self.totals.items():
            for field, value in stat.items():
                snap[f"{layer}.{field}"] = value
        return snap


def delta(after: dict, before: dict) -> dict[str, float]:
    return {key: after[key] - before[key] for key in after}


def accumulate(into: dict, part: dict) -> None:
    for key, value in part.items():
        into[key] = into.get(key, 0) + value


CHECKS = [f"axioms.check_{a}" for a in ("a3", "a4", "a6", "ec", "se", "a5")]

# The per-layer metrics of BENCHMARK.json, with their units.
PER_LAYER = (
    [
        ("lexq.scalars_built", "count"),
        ("linarith.feasible.calls", "count"),
        ("linarith.feasible.self_s", "s"),
        ("linarith.feasible.rows", "count"),
        ("linarith.feasible.unsat_share", "ratio"),
        ("linarith.project_interval.calls", "count"),
        ("apartment.region_contains.calls", "count"),
        ("apartment.region_contains.self_s", "s"),
        ("apartment.region_equal.calls", "count"),
        ("apartment.region_equal.hit_share", "ratio"),
        ("apartment.region_contains_germ.calls", "count"),
        ("apartment.region_contains_point.calls", "count"),
        ("apartment.classify_region.calls", "count"),
        ("apartment.metric.calls", "count"),
        ("apartment.metric.self_s", "s"),
        ("rootsystem.act_point.calls", "count"),
        ("atlas.transport_point.calls", "count"),
        ("atlas.transport_point.hit_share", "ratio"),
        ("atlas.transport_germ.calls", "count"),
        ("atlas.transport_sector.calls", "count"),
        ("atlas.validate.s", "s"),
    ]
    + [(f"{layer}.s", "s") for layer in CHECKS]
    + [("axioms.lines", "count"), ("infinity.infinity_complex.s", "s")]
)


def layer_metrics(totals: dict) -> dict[str, tuple[float, str]]:
    """PER_LAYER from summed snapshots: name -> (value, unit)."""
    t = dict(totals)

    def share(part, base):
        return t[part] / t[base] if t[base] else 0.0

    t["linarith.feasible.unsat_share"] = 1 - share("linarith.feasible.sat", "linarith.feasible.calls")
    t["apartment.region_equal.hit_share"] = share("apartment.region_equal.hit", "apartment.region_equal.calls")
    t["atlas.transport_point.hit_share"] = share("atlas.transport_point.hit", "atlas.transport_point.calls")
    t["axioms.lines"] = sum(t[f"{layer}.lines"] for layer in CHECKS)
    return {name: (t[name], unit) for name, unit in PER_LAYER}
