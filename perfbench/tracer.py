"""Per-layer tracing from outside smoothsum.

The tracer replaces public functions and methods of the package with
wrappers that record spans (name, start, end, parent) or counts, keeps
them in memory, and restores the originals afterwards.  A name bound by
`from .x import name` lives in every importing module's namespace, so a
wrapper is installed at every module attribute that holds the original,
and `leftovers()` reports any reference that still points at one.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter
from time import perf_counter

# (module, qualified name, metric stem, kind[, (before, after) hooks]) -- "span" records
# start/end/parent, "count" only counts calls (QSqrt2 arithmetic is far
# too hot to time without swamping it).
SPAN, COUNT = "span", "count"


def _coef_bits(fm) -> int:
    bits = 0
    for s in fm.steps:
        for part in (s.c.a, s.c.b):
            bits = max(bits, part.numerator.bit_length(), part.denominator.bit_length())
    return bits


def _after_build(tr, args, result, token):
    key = "franklin.coef_bits_max"
    tr.counts[key] = max(tr.counts[key], _coef_bits(result))


def _after_grid(tr, args, result, token):
    tr.counts["franklin.parse_grid.points"] += len(result)


def _after_eval_tagged(tr, args, result, token):
    if isinstance(result, tuple):
        tr.counts["expr.eval_tagged.indeterminate"] += 1


def _after_inverse(tr, args, result, token):
    if tr.active["decompose.kernel_image_check"]:
        tr.counts["decompose.kernel_image_check.candidates"] += 1


def _before_kernel_image(tr, args):
    return tr.counts["decompose.kernel_image_check.candidates"]


def _after_kernel_image(tr, args, result, token):
    searched = tr.counts["decompose.kernel_image_check.candidates"] > token
    if searched and result.witness_matrix is not None:
        tr.counts["decompose.kernel_image_check.hits"] += 1


def _scenario_name(args, kwargs):
    return f"gallery.run_scenario.{args[0] if args else kwargs['name']}"


TARGETS = [
    ("numbers", "QSqrt2.__mul__", "numbers.QSqrt2.mul", COUNT),
    ("numbers", "QSqrt2.inverse", "numbers.QSqrt2.inverse", COUNT),
    ("numbers", "floor_qsqrt2", "numbers.floor_qsqrt2", COUNT),
    ("numbers", "exp_tagged", "numbers.exp_tagged", COUNT),
    ("intervals", "certify_positive", "intervals.certify_positive", SPAN),
    ("intervals", "poly_product_derivative", "intervals.poly_product_derivative", COUNT),
    ("linalg", "rref", "linalg.rref", SPAN),
    ("linalg", "solve", "linalg.solve", COUNT),
    ("linalg", "inverse", "linalg.inverse", COUNT, (None, _after_inverse)),
    ("expr", "eval_tagged", "expr.eval_tagged", SPAN, (None, _after_eval_tagged)),
    ("expr", "classify_smoothness", "expr.classify_smoothness", SPAN),
    ("expr", "is_smooth_expr", "expr.is_smooth_expr", COUNT),
    ("diffeology", "Plot.component_expr", "diffeology.Plot.component_expr", COUNT),
    ("constraints", "atom_table", "constraints.atom_table", COUNT),
    ("constraints", "dual_basis", "constraints.dual_basis", SPAN),
    ("constraints", "maximal_isotropic", "constraints.maximal_isotropic", SPAN),
    ("constraints", "characteristic_decomposition", "constraints.characteristic_decomposition", SPAN),
    ("constraints", "subset_standard", "constraints.subset_standard", SPAN),
    ("constraints", "all_lines_standard", "constraints.all_lines_standard", SPAN),
    ("franklin", "simplest_in_interval", "franklin.simplest_in_interval", COUNT),
    ("franklin", "build_franklin", "franklin.build_franklin", SPAN, (None, _after_build)),
    ("franklin", "FranklinMap.eval_exact", "franklin.FranklinMap.eval_exact", SPAN),
    ("franklin", "FranklinMap.eval_float", "franklin.FranklinMap.eval_float", SPAN),
    ("franklin", "FranklinMap.certify_monotonic", "franklin.FranklinMap.certify_monotonic", SPAN),
    ("franklin", "certify_rationality_link", "franklin.certify_rationality_link", SPAN),
    ("franklin", "verify_abs_identity", "franklin.verify_abs_identity", SPAN),
    ("franklin", "parse_grid", "franklin.parse_grid", COUNT, (None, _after_grid)),
    ("decompose", "check_algebraic_sum", "decompose.check_algebraic_sum", SPAN),
    ("decompose", "certify_smooth_sum", "decompose.certify_smooth_sum", SPAN),
    ("decompose", "refute_smooth_sum_standard", "decompose.refute_smooth_sum_standard", SPAN),
    ("decompose", "nonstandard_subspace_witness", "decompose.nonstandard_subspace_witness", SPAN),
    ("decompose", "complementedness_report", "decompose.complementedness_report", SPAN),
    ("decompose", "decomposability_report", "decompose.decomposability_report", SPAN),
    ("decompose", "kernel_image_check", "decompose.kernel_image_check", SPAN,
     (_before_kernel_image, _after_kernel_image)),
    ("gallery", "gallery_space", "gallery.gallery_space", SPAN),
    ("gallery", "gallery_witnesses", "gallery.gallery_witnesses", SPAN),
    ("gallery", "franklin_map", "gallery.franklin_map", SPAN),
    ("gallery", "run_scenario", _scenario_name, SPAN),
    ("cli", "main", "cli.main", SPAN),
]


class Tracer:
    """Spans and counts for one traced phase; `collect()` ends the phase."""

    def __init__(self, package: dict):
        self.package = package  # short module name -> module
        self._patches = []  # (owner, attribute, original)
        self._originals = {}  # id(original) -> its qualified name
        self.reset()

    # -- recording --------------------------------------------------------

    def reset(self) -> None:
        self.spans = []  # [name, start, end, parent index]
        self.counts = Counter()
        self.active = Counter()
        self._stack = []

    def _span(self, name, fn, hooks):
        before, after = hooks
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            token = before(tr, args) if before else None
            rec = [label, 0.0, 0.0, tr._stack[-1] if tr._stack else -1]
            tr._stack.append(len(tr.spans))
            tr.spans.append(rec)
            tr.active[label] += 1
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tr.active[label] -= 1
                tr._stack.pop()
            if after:
                after(tr, args, result, token)
            return result

        return wrapper

    def _count(self, name, fn, hooks):
        _, after = hooks
        tr = self
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tr.counts[key] += 1
            result = fn(*args, **kwargs)
            if after:
                after(tr, args, result, None)
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def _classes(self):
        for mod in self.package.values():
            for value in vars(mod).values():
                if inspect.isclass(value) and value.__module__ == mod.__name__:
                    yield value

    def install(self) -> None:
        for target in TARGETS:
            modname, qualname, stem, kind = target[:4]
            hooks = target[4] if len(target) > 4 else (None, None)
            make = self._span if kind == SPAN else self._count
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(self.package[modname], cls_name)
                original = cls.__dict__[attr]
                wrapper = make(stem, original, hooks)
                # aliases such as __rmul__ = __mul__ share the function object
                owners = [(cls, k) for k, v in vars(cls).items() if v is original]
            else:
                original = getattr(self.package[modname], qualname)
                wrapper = make(stem, original, hooks)
                owners = [
                    (mod, k)
                    for mod in self.package.values()
                    for k, v in vars(mod).items()
                    if v is original
                ]
            self._originals[id(original)] = f"{modname}.{qualname}"
            for owner, key in owners:
                self._patches.append((owner, key, original))
                setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    def leftovers(self) -> list:
        """References to an unwrapped original that a call could still reach:
        module globals, one level into module-level containers, class
        attributes, and default arguments of package functions."""
        found = []

        def check(where, value):
            if id(value) in self._originals:
                found.append(f"{where} still holds the unwrapped {self._originals[id(value)]}")

        for mod in self.package.values():
            for key, value in vars(mod).items():
                check(f"{mod.__name__}.{key}", value)
                if isinstance(value, dict):
                    for k, v in value.items():
                        check(f"{mod.__name__}.{key}[{k!r}]", v)
                elif isinstance(value, (list, tuple, set, frozenset)):
                    for v in value:
                        check(f"{mod.__name__}.{key}[...]", v)
                elif inspect.isfunction(value):
                    for v in (value.__defaults__ or ()) + tuple((value.__kwdefaults__ or {}).values()):
                        check(f"default of {mod.__name__}.{key}", v)
        for cls in self._classes():
            for key, value in vars(cls).items():
                check(f"{cls.__module__}.{cls.__qualname__}.{key}", value)
        return found

    # -- metrics ----------------------------------------------------------

    def collect(self) -> dict:
        """Per-name calls, inclusive seconds and self seconds of the phase,
        plus its counts; then start a new phase."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = Counter(self.counts)
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            out[name + ".calls"] += 1
            out[name + ".self_s"] += dur - child_time[i]
            # inclusive time counts only the outermost span of a name
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                out[name + ".s"] += dur
        records = list(spans)
        self.reset()
        return {"metrics": dict(out), "spans": records}
