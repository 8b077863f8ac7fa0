"""Spans around calls into dvrfilt's modules, recorded from outside the package.

The traced run replaces module functions and class methods of dvrfilt with
wrappers that time each call and link it to the span that was open when it
started.  Hot calls are aggregated in memory per (parent, name) edge with a
call count, self time and total time, so memory stays bounded; operation
spans (one per benchmark op) are kept individually.  Self time is a span's
duration minus the part of it covered by child spans.

A hook whose target no longer exists is recorded as missing instead of
failing, so refactors inside the package do not break the traced run; the
metrics that depend only on missing hooks are then reported as null.
"""

from __future__ import annotations

import importlib
import sys
import time

# (group, module, attribute).  A group is the unit the per-module metrics
# are built from; the span name is "<module>.<attribute>".
HOOKS = [
    ("elements.construct", "elements", "FieldElement.__post_init__"),
    ("elements.poly_gcd", "elements", "poly_gcd"),
    ("elements.poly_mul", "elements", "poly_mul"),
    ("elements.poly_divmod", "elements", "poly_divmod"),
    *(
        ("elements.arith", "elements", attr)
        for attr in (
            "FieldElement.__add__",
            "FieldElement.__sub__",
            "FieldElement.__mul__",
            "FieldElement.__truediv__",
            "FieldElement.__neg__",
            "FieldElement.__pow__",
            "FieldElement.inverse",
            "field_arith",
            "pi_power",
        )
    ),
    ("elements.parse", "elements", "parse_element"),
    ("elements.format", "elements", "format_element"),
    ("valuation.valuation", "valuation", "ValuationSpec.valuation"),
    ("valuation.residue", "valuation", "ValuationSpec.residue"),
    ("valuation.other", "valuation", "ValuationSpec.uniformizer_power"),
    ("valuation.checker", "valuation", "check_valuation_axioms"),
    *(
        ("filtration", "filtration", attr)
        for attr in (
            "check_filtration_axioms",
            "adic_vs_valuation",
            "strong_split",
            "level_member",
            "principal_generator",
        )
    ),
    *(
        ("graded", "graded", attr)
        for attr in (
            "symbol",
            "gr_arith",
            "GradedElement.__post_init__",
            "GradedElement.__add__",
            "GradedElement.__mul__",
            "format_graded",
            "parse_graded",
            "gr_to_poly",
            "poly_to_gr",
        )
    ),
    *(
        ("ideals", "ideals", attr)
        for attr in (
            "ideal_from_generators",
            "ideal_op",
            "ideal_product",
            "ideal_sum",
            "ideal_intersect",
            "ideal_inverse",
            "denominator_witness",
            "as_power_of_m",
            "parse_ideal",
            "format_ideal",
        )
    ),
    *(
        ("spectrum", "spectrum", attr)
        for attr in (
            "FiltFn.value",
            "upper_member",
            "lower_member",
            "upper_member_literal",
            "lower_member_literal",
            "lemma32_report",
            "prop36_check",
            "spec_f",
            "branched",
        )
    ),
    ("filtered_modules.snf", "filtered_modules", "snf"),
    ("filtered_modules.det", "filtered_modules", "det"),
    ("filtered_modules.leading", "filtered_modules", "leading_matrix"),
    ("filtered_modules.injective", "filtered_modules", "gr_injective"),
    ("filtered_modules.injective", "filtered_modules", "map_injective"),
    ("filtered_modules.injective", "filtered_modules", "residue_matrix_rank"),
    ("filtered_modules.other", "filtered_modules", "mat_mul"),
    ("filtered_modules.other", "filtered_modules", "escape_level"),
    ("filtered_modules.other", "filtered_modules", "FilteredMap.__post_init__"),
    ("cli.dispatch", "cli", "dispatch"),
]

# Every public function of this module is hooked; the module is not part of
# the exported API and may move out of the package.
SAMPLING_MODULE = "sampling"


class Tracer:
    """Span stack plus per-edge aggregates for one traced run."""

    def __init__(self) -> None:
        self.stack: list = []  # open frames: [name, seconds covered by children]
        self.edges: dict = {}  # (parent name, name) -> [calls, self_s, total_s]
        self.ops: list = []  # operation spans, kept individually
        self.group_of: dict = {}  # span name -> group
        self.missing: list = []  # hooks whose target does not exist
        self.construct_noop = 0
        self.gcd_nontrivial = 0
        self._undo: list = []
        self._t0 = time.perf_counter()

    def _close(self, name: str, frame: list, dt: float) -> None:
        stack = self.stack
        stack.pop()
        parent = None
        if stack:
            stack[-1][1] += dt
            parent = stack[-1][0]
        rec = self.edges.get((parent, name))
        if rec is None:
            rec = self.edges[(parent, name)] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dt - frame[1]
        rec[2] += dt

    def wrap(self, name: str, fn):
        stack, close, clock = self.stack, self._close, time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(name, frame, clock() - t0)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def op(self, op_id: int, kind: str, field: str, call):
        """Run one benchmark operation as a root span and keep its span."""
        name = f"op.{kind}"
        frame = [name, 0.0]
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            return call()
        finally:
            t1 = time.perf_counter()
            self._close(name, frame, t1 - t0)
            self.ops.append(
                {"id": op_id, "name": name, "field": field,
                 "start": t0 - self._t0, "end": t1 - self._t0}
            )

    # -- installing hooks ---------------------------------------------

    def _observe(self, group: str, traced):
        if group == "elements.construct":
            def post_init(obj):
                before = (getattr(obj, "num", None), getattr(obj, "den", None))
                traced(obj)
                if (getattr(obj, "num", None), getattr(obj, "den", None)) == before:
                    self.construct_noop += 1
            return post_init
        if group == "elements.poly_gcd":
            def gcd(*args, **kwargs):
                g = traced(*args, **kwargs)
                if len(g) > 1:
                    self.gcd_nontrivial += 1
                return g
            return gcd
        return traced

    def _replace_everywhere(self, fn, new) -> None:
        # Modules bind each other's functions by name at import time, so the
        # wrapper goes into every dvrfilt namespace that holds the original.
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "dvrfilt" and not name.startswith("dvrfilt."):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, new)
                    self._undo.append((mod, key, fn))

    def _hook(self, group: str, module: str, attr: str) -> None:
        span = f"{module}.{attr}"
        try:
            owner = importlib.import_module(f"dvrfilt.{module}")
        except ImportError:
            self.missing.append(span)
            return
        *path, last = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or last not in vars(owner) or not callable(vars(owner)[last]):
            self.missing.append(span)
            return
        original = vars(owner)[last]
        self.group_of[span] = group
        new = self._observe(group, self.wrap(span, original))
        if path:
            setattr(owner, last, new)
            self._undo.append((owner, last, original))
        else:
            self._replace_everywhere(original, new)

    def install(self) -> None:
        for group, module, attr in HOOKS:
            self._hook(group, module, attr)
        try:
            sampling = importlib.import_module(f"dvrfilt.{SAMPLING_MODULE}")
        except ImportError:
            self.missing.append(f"{SAMPLING_MODULE}.*")
            return
        for attr, value in list(vars(sampling).items()):
            if (not attr.startswith("_") and callable(value)
                    and getattr(value, "__module__", None) == sampling.__name__
                    and not isinstance(value, type)):
                self._hook("sampling", SAMPLING_MODULE, attr)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # -- results ------------------------------------------------------

    def group_totals(self) -> dict:
        """group -> [calls, self_s, total_s], summed over every edge."""
        out: dict = {}
        for (_, name), (calls, self_s, total_s) in self.edges.items():
            group = self.group_of.get(name)
            if group is None:
                continue
            rec = out.setdefault(group, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += self_s
            rec[2] += total_s
        return out

    def has_group(self, group: str) -> bool:
        return group in self.group_of.values()

    def dump(self) -> dict:
        return {
            "ops": self.ops,
            "edges": [
                {"parent": parent, "name": name, "calls": c, "self_s": s, "total_s": t}
                for (parent, name), (c, s, t) in sorted(
                    self.edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])
                )
            ],
            "group_of": self.group_of,
            "construct_noop": self.construct_noop,
            "gcd_nontrivial": self.gcd_nontrivial,
            "missing_hooks": self.missing,
        }

    def absorb(self, dumped: dict) -> None:
        """Add the edges and counters another process dumped (CLI children)."""
        for e in dumped["edges"]:
            rec = self.edges.setdefault((e["parent"], e["name"]), [0, 0.0, 0.0])
            rec[0] += e["calls"]
            rec[1] += e["self_s"]
            rec[2] += e["total_s"]
        self.group_of.update(dumped["group_of"])
        self.construct_noop += dumped["construct_noop"]
        self.gcd_nontrivial += dumped["gcd_nontrivial"]
        for name in dumped["missing_hooks"]:
            if name not in self.missing:
                self.missing.append(name)
