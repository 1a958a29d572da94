"""Spans and counters recorded from the benchmark's own call sites.

The program under test is not edited: a :class:`Tracer` wraps selected
driver-side functions of ``repro`` for the duration of a traced pass and
restores them afterwards.

One precaution governs which names may be wrapped. Spark pickles the
functions nested inside a ``repro`` function (the ``mapInPandas``
closures) *by value*, together with the module globals they reference.
A wrapper installed on such a global would be shipped to the Python
workers, which cannot import this directory. :func:`shipped_globals`
lists those names per module and :meth:`Tracer.installed` refuses to
wrap any of them (``repro.core.iim.knn_numpy`` is one:
``_impute_broadcast.run`` references it).
"""
from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from types import CodeType, ModuleType
from typing import Callable, Iterator

#: Spans that group layer spans without being a layer themselves.
GROUPING_SPANS = ("pass", "method.IIM")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans

    @property
    def duration(self) -> float:
        return self.end - self.start


def _names(code: CodeType) -> set[str]:
    out = set(code.co_names)
    for c in code.co_consts:
        if isinstance(c, CodeType):
            out |= _names(c)
    return out


def shipped_globals(module: ModuleType) -> set[str]:
    """Names referenced by functions nested inside ``module``'s functions.

    Over-approximates (attribute names are included), which only makes
    the refusal in :meth:`Tracer.installed` more conservative.
    """
    out: set[str] = set()
    for obj in vars(module).values():
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            for c in obj.__code__.co_consts:
                if isinstance(c, CodeType):
                    out |= _names(c)
    return out


class Tracer:
    """In-memory spans (name, start, end, parent) and counters."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.gauges: dict[str, float] = {}
        self._stack: list[int] = []
        #: DataFrames cached by the wrappers; unpersisted by :meth:`release`.
        self.cached: list = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.gauges.clear()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.duration for s in self.spans if s.name == name)

    def covered(self) -> float:
        """Time covered by the outermost layer spans (spans that are not
        in :data:`GROUPING_SPANS` and have no layer span above them)."""
        out = 0.0
        for s in self.spans:
            if s.name in GROUPING_SPANS:
                continue
            p = s.parent
            while p is not None and self.spans[p].name in GROUPING_SPANS:
                p = self.spans[p].parent
            if p is None:
                out += s.duration
        return out

    def release(self) -> None:
        for df in self.cached:
            df.unpersist()
        self.cached.clear()

    # ------------------------------------------------------------ wrappers

    def _wrappers(self) -> dict[tuple[str, str], Callable[[Callable], Callable]]:
        """(module, name) -> factory turning the original into a wrapper."""

        def collect(orig):
            def wrapper(df, *a, **kw):
                with self.span("nn.collect"):
                    rel = orig(df, *a, **kw)
                self.counts["nn.collect_calls"] += 1
                return rel

            return wrapper

        def driver_knn(orig):
            def wrapper(Q, R, k, **kw):
                with self.span("nn.driver_knn"):
                    out = orig(Q, R, k, **kw)
                self.counts["nn.driver_knn_pairs"] += len(Q) * len(R)
                return out

            return wrapper

        def make_grid(orig):
            def wrapper(*a, **kw):
                grid = orig(*a, **kw)
                self.gauges["adaptive.grid_points"] = len(grid)
                return grid

            return wrapper

        def adaptive_learn(orig):
            # The sweep is lazy: materialise it once, cached, so the
            # imputation that consumes the models does not run it again.
            def wrapper(*a, **kw):
                with self.span("adaptive.prep"):
                    models = orig(*a, **kw)
                with self.span("adaptive.sweep"):
                    models = models.cache()
                    learned = models.count()
                self.cached.append(models)
                self.counts["adaptive.models_learned"] += learned
                self.counts["linalg.solves"] += learned * int(
                    self.gauges.get("adaptive.grid_points", 0)
                )
                return models

            return wrapper

        def impute(orig):
            def wrapper(*a, **kw):
                with self.span("iim.impute"):
                    out = orig(*a, **kw).cache()
                    out.count()
                self.cached.append(out)
                return out

            return wrapper

        def generate(orig):
            def wrapper(*a, **kw):
                with self.span("datasets.generate"):
                    return orig(*a, **kw)

            return wrapper

        sites = {
            ("repro.core.adaptive", "knn_numpy"): driver_knn,
            ("repro.core.adaptive", "adaptive_learn"): adaptive_learn,
            ("repro.core.linalg", "make_grid"): make_grid,
            ("repro.core.iim", "impute"): impute,
            ("repro.eval.harness", "generate"): generate,
        }
        for mod in (
            "repro.core.adaptive",
            "repro.core.iim",
            "repro.baselines.simple",
            "repro.baselines.regression",
            "repro.baselines.cluster",
            "repro.baselines.matrix",
            "repro.baselines.boosting",
        ):
            sites[(mod, "collect_relation")] = collect
        return sites

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap the driver-side call sites; restore them on exit."""
        saved: list[tuple[ModuleType, str, Callable]] = []
        try:
            for (mod_name, name), factory in self._wrappers().items():
                try:
                    mod = importlib.import_module(mod_name)
                except ModuleNotFoundError:
                    continue  # the program no longer has this module
                if not hasattr(mod, name):
                    continue  # the program no longer calls it from here
                if name in shipped_globals(mod):
                    raise RuntimeError(
                        f"{mod_name}.{name} is referenced by a closure Spark "
                        "ships to executors; wrapping it would ship the wrapper"
                    )
                orig = getattr(mod, name)
                saved.append((mod, name, orig))
                setattr(mod, name, factory(orig))
            yield
        finally:
            for mod, name, orig in reversed(saved):
                setattr(mod, name, orig)
