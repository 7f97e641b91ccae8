"""In-memory spans around calls into the public functions of each layer.

A traced pass installs wrappers, runs, and removes them again, so untraced
passes in the same process run the unmodified code.  Methods are wrapped on
their class.  A free function is replaced in every module of the package
that holds it, because ``verify``, ``cluster``, ``minors`` and the package
``__init__`` bind names with ``from .x import y``.

Each span adds its duration to its parent's child time, so a layer's self
time is its span time minus the time covered by its child spans.  Spans are
aggregated per name as they close, and the table is written out only after
the pass.  Counters (term products, peak term counts, peak coefficient bits,
determinant sizes) are taken at the same boundaries; the time spent taking
them is charged to no layer, only to the traced pass as a whole.
"""

from __future__ import annotations

import inspect
import sys
import time

_clock = time.perf_counter_ns


class Tracer:
    """Per-name span totals and counters for one traced pass."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        """Return fn wrapped in a span; ``name`` is a string or a callable
        mapping the call's arguments to the span name."""
        stack = self._stack
        calls, self_ns, total_ns = self.calls, self.self_ns, self.total_ns

        def span(*args, **kwargs):
            key = name if isinstance(name, str) else name(args, kwargs)
            stack.append(0)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = _clock() - t0
                child = stack.pop()
                calls[key] = calls.get(key, 0) + 1
                self_ns[key] = self_ns.get(key, 0) + dur - child
                total_ns[key] = total_ns.get(key, 0) + dur
                if stack:
                    stack[-1] += dur
            if after is not None:
                t1 = _clock()
                after(args, kwargs, result)
                if stack:
                    stack[-1] += _clock() - t1
            return result

        return span

    def count_max(self, key: str, value: int) -> None:
        """Keep the largest value seen under key."""
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    def count_add(self, key: str, value: int) -> None:
        """Add value to the total under key."""
        self.counts[key] = self.counts.get(key, 0) + value

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_method(self, cls, attr: str, name, after=None) -> None:
        """Replace ``cls.attr``; raise if the class does not define it, so
        that a renamed method fails the traced run instead of reading 0."""
        if attr not in cls.__dict__:
            raise AttributeError(f"spans: {cls.__qualname__} defines no {attr}")
        self._set(cls, attr, self._wrap(name, cls.__dict__[attr], after))

    def wrap_function(self, module, attr: str, name, after=None) -> None:
        """Replace ``module.attr`` wherever the package holds that object;
        raise if the module has no such function."""
        fn = getattr(module, attr, None)
        if not callable(fn):
            raise AttributeError(f"spans: {module.__name__} has no function {attr}")
        wrapped = self._wrap(name, fn, after)
        package = module.__name__.split(".")[0]
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        install_layers(self)
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ----------------------------------------------------------

    def table(self) -> dict[str, dict]:
        """Per span name: calls, total seconds, self seconds."""
        return {
            k: {
                "calls": self.calls[k],
                "total_s": self.total_ns[k] / 1e9,
                "self_s": self.self_ns[k] / 1e9,
            }
            for k in sorted(self.calls)
        }


def install_layers(tr: Tracer) -> None:
    """Wrap the public entry points of every layer the workloads reach."""
    from zastava import cluster, linalg, minors, multirat, points, poisson, series
    from zastava import superpotential, unipoly

    # -- multirat: products, evaluation, calculus, substitution
    def after_mul(args, kwargs, result):
        a, b = args[0], args[1]
        right = len(b.terms) if isinstance(b, multirat.MultiPoly) else 1
        tr.count_add("multirat.poly_mul.term_pairs", len(a.terms) * right)
        tr.count_max("multirat.poly_mul.peak_terms", len(result.terms))
        bits = 0
        for c in result.terms.values():
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
        tr.count_max("multirat.peak_coeff_bits", bits)

    for attr in ("__mul__", "__rmul__"):
        tr.wrap_method(multirat.MultiPoly, attr, "multirat.poly_mul", after_mul)
    for attr in ("evaluate", "diff", "subs"):
        tr.wrap_method(multirat.MultiRat, attr, f"multirat.{attr}")

    # -- linalg: determinants by strategy, structured minors
    det_default = inspect.signature(linalg.det).parameters["strategy"].default

    def det_name(args, kwargs):
        strategy = kwargs.get("strategy", args[1] if len(args) > 1 else det_default)
        return f"linalg.det.{strategy}"

    def after_det(args, kwargs, result):
        tr.count_max(det_name(args, kwargs) + ".max_n", args[0].rows)

    tr.wrap_function(linalg, "det", det_name, after_det)
    for attr in ("hankel_minor_C", "hankel_minor_D"):
        tr.wrap_function(linalg, attr, "linalg.hankel_minor")
    for attr in ("subresultant_odd", "subresultant_even"):
        tr.wrap_function(linalg, attr, "linalg.subresultant")

    # -- poisson, cluster
    tr.wrap_method(poisson.BracketTable, "bracket", "poisson.bracket")
    for attr in ("verify_descent", "jacobi_report", "symplectic_check_trig"):
        tr.wrap_function(poisson, attr, f"poisson.{attr}")

    def after_logcanon(args, kwargs, result):
        tr.count_add("cluster.accepted_points", result["trials"])

    tr.wrap_function(cluster, "initial_seed_sl2", "cluster.initial_seed_sl2")
    tr.wrap_function(cluster, "log_canonicity_check", "cluster.log_canonicity_check", after_logcanon)
    tr.wrap_function(cluster, "sample_chart_point", "cluster.sample_chart_point")

    # -- scalar layers reached by the pointwise checks
    tr.wrap_function(series, "series_expand", "series.series_expand")
    for attr in ("poly_divmod", "poly_gcd", "rational_roots"):
        tr.wrap_function(unipoly, attr, f"unipoly.{attr}")
    for attr in ("from_coords", "g_matrix", "recover_coords"):
        tr.wrap_function(points, attr, f"points.{attr}")
    tr.wrap_function(minors, "crosscheck_three_routes", "minors.crosscheck_three_routes")
    tr.wrap_function(superpotential, "verify_gw_w", "superpotential.verify_gw_w")
