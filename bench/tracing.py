"""Per-layer tracing of schmidt_cone from outside the package.

``Tracer.install()`` replaces the public functions of each package module, the
numpy.linalg kernels the oracles call, and the frame-grid task with wrappers
that count calls and time them with ``perf_counter``.  Every module global
bound to a wrapped function is replaced, because ``classify`` and ``oracles``
import their helpers by name.  Totals are a plain dict of lists of floats,
so a pool worker's totals pickle back with its task result and are summed
into the parent's.

Self time of a span is its duration minus the time of the wrapped spans it
directly contains.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter as _now

import numpy as np

TRACE_KEY = "_bench_trace"

_TARGETS = {
    "linalg": ("as_hermitian", "flip", "max_entangled"),
    "symmetry": ("haar_orthogonal_batch", "twirl_monte_carlo", "twirl_exact"),
    "geometry": ("kpos_conic", "dual_conic", "conic_through_five_points", "map_region_boundary",
                 "state_region_boundary", "region_svg", "region_csv", "region_payload"),
    "classify": ("is_k_positive", "schmidt_membership", "kpos_margin_grid", "schmidt_margin_grid",
                 "k_positivity_max", "schmidt_number", "k_superpositivity_max"),
    "oracles": ("random_frames", "grid_agreement", "twirl_consistency", "frame_minima_check",
                "witness_grid_check", "duality_sanity", "block_positivity_falsifier",
                "witness_points"),
    "cli": ("main",),
}
_KERNELS = ("qr", "cholesky", "eigvalsh")
_SPLIT_BY_MODE = {"classify.is_k_positive", "classify.schmidt_membership"}
_RENAMED = {"oracles.witness_points": "geometry.witness_points"}  # pure geometry
# A count added per call besides calls and seconds: (suffix, count of the arguments).
_EXTRA = {
    "symmetry.haar_orthogonal_batch": ("matrices", lambda a: a[1]),
    "classify.kpos_margin_grid": ("pts", lambda a: np.size(a[2])),
    "classify.schmidt_margin_grid": ("pts", lambda a: np.size(a[2])),
    "oracles.random_frames": ("frames", lambda a: a[2]),
    "numpy.linalg.eigvalsh": ("matrices", lambda a: int(np.prod(np.shape(a[0])[:-2]))),
}

# The tracer of this process while installed.  It is process-wide because
# the patches it owns are; the pickled grid-task wrapper reaches it here.
_ACTIVE: "Tracer | None" = None


class Tracer:
    """Counts and span times per metric name, for one process at a time."""

    def __init__(self):
        # name -> [calls, seconds, self seconds, failures, extra count]
        self.acc: dict[str, list[float]] = {}
        self._stack: list[float] = []
        self._paused = False
        self._undo: list[tuple[object, str, object]] = []
        self._task = None  # the wrapped frame-grid task while installed
        self.pid = os.getpid()

    @property
    def spans(self) -> int:
        return int(sum(a[0] for a in self.acc.values()))

    @property
    def totals(self) -> dict[str, float]:
        """Flat metric name -> value, e.g. 'numpy.linalg.qr.calls'."""
        out = {}
        for name, (calls, s, self_s, failures, extra) in self.acc.items():
            out.update({f"{name}.calls": calls, f"{name}.s": s, f"{name}.self_s": self_s,
                        f"{name}.failures": failures})
            if name in _EXTRA:
                out[f"{name}.{_EXTRA[name][0]}"] = extra
        return out

    def add_seconds(self, name: str, seconds: float) -> None:
        """Add time measured outside a span, such as a pool's lifetime."""
        self.acc.setdefault(name, [0.0] * 5)[1] += seconds

    def merge(self, acc: dict) -> None:
        for name, vals in acc.items():
            slot = self.acc.setdefault(name, [0.0] * 5)
            for i, val in enumerate(vals):
                slot[i] += val

    @contextmanager
    def paused(self):
        """Call through without recording, e.g. while checking answers."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # -- patching ----------------------------------------------------------

    def _wrap(self, fn, base: str):
        split = base in _SPLIT_BY_MODE
        names = (f"{base}.exact", f"{base}.float")
        count_extra = _EXTRA[base][1] if base in _EXTRA else None
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            if split:  # classify's own rule: exact when both coordinates are
                exact = all(isinstance(v, (int, Fraction)) for v in args[1:3])
                name = names[0] if exact else names[1]
            else:
                name = base
            slot = tracer.acc.get(name)
            if slot is None:
                slot = tracer.acc[name] = [0.0] * 5
            stack = tracer._stack
            stack.append(0.0)
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            except Exception:
                slot[3] += 1
                raise
            finally:
                dt = _now() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                slot[0] += 1
                slot[1] += dt
                slot[2] += dt - child
                if count_extra is not None:
                    slot[4] += count_extra(args)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, obj, attr: str, new) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def install(self) -> None:
        global _ACTIVE
        import schmidt_cone
        from schmidt_cone import classify, cli, geometry, linalg, oracles, symmetry

        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already installed")
        mods = {"linalg": linalg, "symmetry": symmetry, "geometry": geometry,
                "classify": classify, "oracles": oracles, "cli": cli}
        package = [schmidt_cone, *mods.values()]
        for mod_name, attrs in _TARGETS.items():
            for attr in attrs:
                orig = getattr(mods[mod_name], attr)
                name = f"{mod_name}.{attr}"
                new = self._wrap(orig, _RENAMED.get(name, name))
                for mod in package:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, key, new)
        for attr in _KERNELS:
            self._patch(np.linalg, attr, self._wrap(getattr(np.linalg, attr), f"numpy.linalg.{attr}"))
        self._patch(symmetry.InvariantState, "matrix",
                    self._wrap(symmetry.InvariantState.matrix, "symmetry.InvariantState.matrix"))
        self._task = self._wrap(oracles._grid_task, "oracles.grid_task")
        self._patch(oracles, "_grid_task", _traced_grid_task)
        self._patch(oracles, "ProcessPoolExecutor", _TracedPool)
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        for obj, attr, val in reversed(self._undo):
            setattr(obj, attr, val)
        self._undo.clear()
        _ACTIVE = None

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _traced_grid_task(args) -> dict:
    """The frame-grid task, timed; in a pool worker it ships its totals back."""
    tracer = _ACTIVE
    in_worker = os.getpid() != tracer.pid
    if in_worker:
        # a forked worker inherits the parent's totals; count this task alone
        tracer.acc = {}
        tracer._stack = []
    result = tracer._task(args)
    if in_worker:
        result[TRACE_KEY] = tracer.acc
    return result


class _TracedPool(ProcessPoolExecutor):
    """The oracle pool, merging worker totals and timing the pool's life."""

    def __init__(self, max_workers=None, *args, **kwargs):
        super().__init__(max_workers, *args, **kwargs)
        self._bench_t0 = _now()

    def map(self, fn, *iterables, **kwargs):
        for result in super().map(fn, *iterables, **kwargs):
            shipped = result.pop(TRACE_KEY, None)
            if shipped is not None:
                _ACTIVE.merge(shipped)
            yield result

    def shutdown(self, *args, **kwargs):
        super().shutdown(*args, **kwargs)
        _ACTIVE.add_seconds("oracles.pool", (_now() - self._bench_t0) * self._max_workers)
