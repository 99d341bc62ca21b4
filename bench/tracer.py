"""Trace paulidyn's layers from outside by wrapping their public functions.

Each layer metric names one function of one module (``<module>.<function>``)
and lists the places it is reached through: the defining module and every
module that imported it by name (``paulidyn.dynamics.dephase_all`` and
``paulidyn.channel.dephase_all`` are both ``mub.dephase_all``).  Installing the
tracer replaces each of those attributes with a wrapper; uninstalling puts the
originals back.  Nothing inside the package is edited.

Span layers record one span per call (name, parent span, analysis id, start,
end) into flat in-memory arrays and accumulate calls, total time and self time
(duration minus the time covered by child spans).  Count layers only count
calls: they sit on paths called hundreds of thousands of times per analysis,
where a span would cost more than the work it measures.

A site that no longer exists after a refactor is skipped; a layer whose sites
are all missing is reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

SPAN = "span"
COUNT = "count"


@dataclass(frozen=True)
class Layer:
    name: str     # metric prefix, "<module>.<function>"
    mode: str     # SPAN or COUNT
    sites: tuple  # ("paulidyn.<module>", "<attr>" or "<Class>.<attr>") pairs


def _layer(name, mode, *sites):
    return Layer(name, mode, tuple(sites))


def _sites(attr, *modules):
    return tuple((f"paulidyn.{m}", attr) for m in modules)


#: every layer the benchmark measures, with each name it is reached through
LAYERS = (
    _layer("ratefn.parse", SPAN, *_sites("parse", "ratefn")),
    _layer("ratefn.evaluate", COUNT, *_sites("evaluate", "ratefn", "dynamics")),
    _layer("ratefn.integrate", SPAN, *_sites("integrate", "ratefn", "dynamics")),
    _layer("dynamics.analyze", SPAN, *_sites("analyze", "dynamics")),
    _layer("dynamics.build_trajectory", SPAN, *_sites("build_trajectory", "dynamics")),
    _layer("dynamics.grid_checks", SPAN, *(
        _sites("check_cptp_trajectory", "dynamics")
        + _sites("check_cp_divisible", "dynamics")
        + _sites("check_p_necessary", "dynamics")
        + _sites("check_p_sufficient", "dynamics")
        + _sites("check_weyl_sufficient", "dynamics")
        + _sites("weyl_rates_from_trajectory", "dynamics")
    )),
    _layer("dynamics.check_frobenius_monotone", SPAN,
           *_sites("check_frobenius_monotone", "dynamics")),
    _layer("dynamics.find_p_divisibility_witness", SPAN,
           *_sites("find_p_divisibility_witness", "dynamics")),
    _layer("dynamics.check_blp", SPAN, *_sites("check_blp", "dynamics")),
    _layer("dynamics.evolve_operator", SPAN, *_sites("evolve_operator", "dynamics")),
    _layer("dynamics.trajectory_to_csv", SPAN, *_sites("trajectory_to_csv", "dynamics")),
    _layer("dynamics.DivisibilityReport.to_json_dict", SPAN,
           *_sites("DivisibilityReport.to_json_dict", "dynamics")),
    _layer("mub.mub_family", SPAN, *_sites("mub_family", "mub", "channel", "dynamics", "cli")),
    _layer("mub.dephase_all", SPAN, *_sites("dephase_all", "mub", "channel", "dynamics")),
    _layer("channel.apply", SPAN, *_sites("apply", "channel")),
    _layer("linalg.random_pure_state", COUNT,
           *_sites("random_pure_state", "linalg", "dynamics")),
    _layer("linalg.as_square_matrix", COUNT,
           *_sites("as_square_matrix", "linalg", "mub", "channel", "dynamics")),
    _layer("cli.main", SPAN, *_sites("main", "cli")),
)


#: the per-layer metrics a traced run reports, besides trace.overhead_frac
REPORTED = (
    "ratefn.parse.calls", "ratefn.parse.s", "ratefn.evaluate.calls",
    "ratefn.integrate.calls", "ratefn.integrate.s",
    "dynamics.analyze.s",
    "dynamics.build_trajectory.s", "dynamics.build_trajectory.self_s",
    "dynamics.grid_checks.s",
    "dynamics.check_frobenius_monotone.s",
    "dynamics.find_p_divisibility_witness.s", "dynamics.find_p_divisibility_witness.self_s",
    "dynamics.check_blp.s",
    "dynamics.evolve_operator.calls", "dynamics.evolve_operator.s",
    "dynamics.trajectory_to_csv.s", "dynamics.DivisibilityReport.to_json_dict.s",
    "mub.mub_family.calls", "mub.mub_family.s",
    "mub.dephase_all.calls", "mub.dephase_all.s",
    "channel.apply.calls", "channel.apply.s",
    "linalg.random_pure_state.calls", "linalg.as_square_matrix.calls",
    "cli.main.self_s",
)


def _resolve(module_name: str, attr_path: str):
    """(owner object, attribute name, current value) or None if any part is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        # read a method from the class itself, so the original is restored as is
        if attr not in vars(owner):
            return None
        return owner, attr, vars(owner)[attr]
    if not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


class Tracer:
    """In-memory span recorder for one benchmark run.

    Use :meth:`installed` around the analyses to trace and :meth:`analysis`
    around each one; the root span of an analysis is ``bench.analysis``.
    """

    ROOT = "bench.analysis"

    def __init__(self, layers=LAYERS):
        self.layers = tuple(layers)
        self.names = [self.ROOT] + [layer.name for layer in self.layers]
        n = len(self.names)
        self.calls = [0] * n
        self.total_s = [0.0] * n
        self.self_s = [0.0] * n
        self.present = [True] + [False] * len(self.layers)
        self.n_analyses = 0
        # spans, one entry each, appended in start order
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_analysis = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # open spans: index into the span arrays and child time covered so far
        self._open = []
        self._child = []
        self._patched = []

    # -- installation -----------------------------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for mid, layer in enumerate(self.layers, start=1):
            for module_name, attr_path in layer.sites:
                found = _resolve(module_name, attr_path)
                if found is None:
                    continue
                owner, attr, original = found
                wrap = self._span_wrapper if layer.mode == SPAN else self._count_wrapper
                setattr(owner, attr, wrap(original, mid))
                self._patched.append((owner, attr, original))
                self.present[mid] = True

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- recording --------------------------------------------------------

    def _begin(self, mid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(mid)
        self.span_parent.append(self._open[-1] if self._open else -1)
        self.span_analysis.append(self.n_analyses)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._open.append(idx)
        self._child.append(0.0)
        return idx

    def _end(self, mid: int, idx: int, t0: float, t1: float):
        self._open.pop()
        child = self._child.pop()
        dur = t1 - t0
        self.span_start[idx] = t0
        self.span_end[idx] = t1
        self.calls[mid] += 1
        self.total_s[mid] += dur
        self.self_s[mid] += dur - child
        if self._child:
            self._child[-1] += dur

    def _span_wrapper(self, fn, mid: int):
        begin, end = self._begin, self._end

        def traced(*args, **kwargs):
            idx = begin(mid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end(mid, idx, t0, perf_counter())

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, fn, mid: int):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[mid] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    @contextmanager
    def analysis(self):
        """The root span of one analysis."""
        idx = self._begin(0)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._end(0, idx, t0, perf_counter())
            self.n_analyses += 1

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> tuple:
        """Per-analysis means of every present layer, and the absent layer names.

        Returns ``({"<layer>.calls": x, "<layer>.s": x, "<layer>.self_s": x, ...},
        [absent layer names])``; count layers only have ``.calls``.
        """
        n = max(self.n_analyses, 1)
        metrics, absent = {}, []
        for mid, layer in enumerate(self.layers, start=1):
            if not self.present[mid]:
                absent.append(layer.name)
                continue
            metrics[f"{layer.name}.calls"] = self.calls[mid] / n
            if layer.mode == SPAN:
                metrics[f"{layer.name}.s"] = self.total_s[mid] / n
                metrics[f"{layer.name}.self_s"] = self.self_s[mid] / n
        return metrics, absent

    def write_spans(self, path):
        """Write every recorded span and the aggregates as one ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            analysis=np.frombuffer(self.span_analysis, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            calls=np.array(self.calls),
            total_s=np.array(self.total_s),
            self_s=np.array(self.self_s),
        )
