"""Per-layer spans for lptrim, recorded from outside the package.

The tracer replaces public lptrim functions with timing wrappers.  Modules
import public names directly (``from .distributions import marginal_cdf``),
so every lptrim module binding of a wrapped function is replaced, not only
the one in its home module.  Quadrature is counted by wrapping
``scipy.integrate.quad``, which ``lptrim.oracle`` looks up at call time.

Spans are aggregated in memory as they close: per span name the call count
and the self time (duration minus the time covered by the spans it caused).  ``uninstall`` restores every replaced binding.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref

import numpy as np

_CORE_SORTS = ("trimmed_p_mean", "empirical_p_mean", "trim_threshold",
               "truncated_power_mean", "nonincreasing_rearrangement")
_VALIDATORS = ("check_trim_threshold_sandwich", "check_trimmed_sum_brackets",
               "check_empirical_integral_sandwich", "check_moment_sandwich",
               "scan_error_constant_grid")
_RUNNERS = ("run_sandwich", "run_ratio_check", "run_lemma_check", "run_compare")


def _targets():
    """(span name, owner, attribute) of every wrapped function.

    Several functions may share a span name; their calls and times are then
    summed, as for the validators.
    """
    from lptrim import checks, core, distributions, oracle, ratio, runner
    from scipy import integrate

    targets = [("core.project_abs", core, "project_abs")]
    targets += [(f"core.{name}", core, name) for name in _CORE_SORTS]
    targets += [
        ("distributions.draw_sample", distributions, "draw_sample"),
        ("distributions.marginal_cdf", distributions, "marginal_cdf"),
        ("distributions.MomentOracle.moments", distributions.MomentOracle, "moments"),
        ("ratio.ratio_properties_report", ratio, "ratio_properties_report"),
        ("ratio.interval_excess_sup", ratio, "interval_excess_sup"),
        ("ratio.ratio_trial_rows", ratio, "ratio_trial_rows"),
        ("oracle.quad", integrate, "quad"),
        ("oracle.upper_quantile", oracle, "upper_quantile"),
        ("oracle.error_functional", oracle, "error_functional"),
        ("oracle.raw_moment", oracle, "raw_moment"),
        ("oracle.truncated_upper_moment", oracle, "truncated_upper_moment"),
        ("checks.comparison_trial_row", checks, "comparison_trial_row"),
    ]
    targets += [("checks.validators", checks, name) for name in _VALIDATORS]
    targets += [("runner", runner, name) for name in _RUNNERS]
    return targets


class Tracer:
    """Span statistics for one traced run; use as a context manager."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self_s]
        self.sorted_values = 0
        self.empirical_lookups = 0
        self.empirical_builds = 0
        # Held weakly: an evicted reference law dies, and a new one that
        # reuses its id() is still seen as a fresh build.
        self._seen_references = weakref.WeakSet()
        self._open: list[float] = []  # per open span, time covered by its children
        self._restore: list[tuple] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        from lptrim.distributions import EmpiricalCDF

        def count_sorted(args, result):
            self.sorted_values += int(np.size(args[0]))  # every lptrim caller passes it by position

        def count_reference(args, result):
            if isinstance(result, EmpiricalCDF):
                self.empirical_lookups += 1
                if result not in self._seen_references:
                    self.empirical_builds += 1
                    self._seen_references.add(result)

        scopes = [m for name, m in sys.modules.items() if name == "lptrim" or name.startswith("lptrim.")]
        for span, owner, attr in _targets():
            original = getattr(owner, attr)
            observe = None
            if attr in _CORE_SORTS:
                observe = count_sorted
            elif attr == "marginal_cdf":
                observe = count_reference
            wrapper = self._wrap(span, original, observe)
            for scope in [owner, *scopes]:
                for key, value in list(vars(scope).items()):
                    if value is original:
                        setattr(scope, key, wrapper)
                        self._restore.append((scope, key, original))

    def uninstall(self) -> None:
        while self._restore:
            scope, key, original = self._restore.pop()
            setattr(scope, key, original)

    def _wrap(self, span: str, fn, observe):
        record = self.stats.setdefault(span, [0, 0.0])
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_spans.pop()
                record[0] += 1
                record[1] += elapsed - children
                if open_spans:
                    open_spans[-1] += elapsed
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def counts(self) -> dict[str, int]:
        """Every count the trace records; these repeat exactly between runs."""
        out = {f"{name}.calls": rec[0] for name, rec in sorted(self.stats.items())}
        out["core.sorted_values"] = self.sorted_values
        out["distributions.marginal_cdf.empirical_lookups"] = self.empirical_lookups
        out["distributions.marginal_cdf.empirical_builds"] = self.empirical_builds
        return out

    def self_times(self) -> dict[str, float]:
        return {f"{name}.self_s": rec[1] for name, rec in sorted(self.stats.items())}
