"""Span recorder installed around the program's public functions.

The tracer wraps functions from the outside, replacing module and class
attributes, so the program's own source carries no tracing code and the
untraced run executes the original functions.  Each call records a span
(name, start, end, parent, request id) into per-thread arrays kept in
memory; `dump` writes them out and `summarize` derives self time, which
is a span's duration minus the part of it that its child spans cover.

Span rules:
* `contangle` functions call each other heavily, so only calls entering
  that layer from outside it open a span; nested calls run unwrapped.
* Every other wrapped function opens a span on every call.
* A span opened on a thread with no open span (the sweep's worker pool)
  takes the running `cli.main` span as its parent.  Its worker spans
  overlap one another in wall time, so the parent's self time subtracts
  the union of its children, and the workers' self times, summed over
  threads, include time spent waiting for the interpreter lock.

Counters record work that is too fine-grained for a span: constructor
validations, purity tests and numpy linalg calls made by the gaussian
layer, with the number of matrices each call decomposes.
"""
from __future__ import annotations

import functools
import sys
import threading
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LINALG = ("cholesky", "eigvalsh", "eigvals")
_SLOT_BITS = 32


class _Buffer:
    def __init__(self, slot: int):
        self.slot = slot
        self.name = array("i")
        self.parent = array("q")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[tuple[int, str]] = []


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.counters: Counter = Counter()
        self.request = 0
        self._root = -1
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buf
        except AttributeError:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
            return buf

    def _span(self, fn, name: str, layer: str, boundary_only: bool = False, on_result=None):
        name_id = len(self.names)
        self.names.append(name)
        is_root = name == "cli.main"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = self._buffer()
            stack = buf.stack
            if boundary_only and stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            index = len(buf.start)
            gid = (buf.slot << _SLOT_BITS) | index
            buf.name.append(name_id)
            buf.parent.append(stack[-1][0] if stack else self._root)
            buf.request.append(self.request)
            buf.end.append(0.0)
            stack.append((gid, layer))
            if is_root:
                outer_root, self._root = self._root, gid
            buf.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[index] = perf_counter()
                stack.pop()
                if is_root:
                    self._root = outer_root
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count(self, fn, counter: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _linalg(self, fn):
        @functools.wraps(fn)
        def wrapper(matrix, *args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == "promiscuity.gaussian":
                shape = np.shape(matrix)
                self.counters["gaussian.linalg_calls"] += 1
                self.counters["gaussian.linalg_matrices"] += int(np.prod(shape[:-2], dtype=np.int64))
            return fn(matrix, *args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, modules, original, replacement) -> None:
        # `from .config import load_config` leaves a second reference in
        # the importing module, so every module binding is replaced
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, replacement)

    def install(self) -> None:
        """Wrap the public functions of every promiscuity layer."""
        from promiscuity import cli, config, contangle, four_mode, gaussian, qudit, verification

        modules = (cli, config, contangle, four_mode, gaussian, qudit, verification)
        targets = [
            (cli, "main", "cli", False, None),
            (config, "load_config", "config", False, None),
            (gaussian, "symplectic_eigenvalues", "gaussian", False, None),
            (gaussian, "log_negativity", "gaussian", False, None),
            (four_mode, "build_state", "four_mode", False, None),
            (four_mode, "full_report", "four_mode", False, None),
            (qudit, "tangle_report", "qudit", False, None),
            (qudit, "squashed_bounds", "qudit", False, None),
            (verification, "run_all", "verification", False, self._count_checks),
        ]
        targets += [
            (contangle, attr, "contangle", True, None)
            for attr, value in vars(contangle).items()
            if callable(value)
            and not attr.startswith("_")
            and getattr(value, "__module__", None) == contangle.__name__
            and not isinstance(value, type)
        ]
        for module, attr, layer, boundary_only, on_result in targets:
            original = getattr(module, attr)
            wrapped = self._span(original, f"{layer}.{attr}", layer, boundary_only, on_result)
            self._patch_everywhere(modules, original, wrapped)
        suites = tuple(
            self._span(suite, f"verification.suite.{suite.__name__.removeprefix('suite_')}", "verification")
            for suite in verification.SUITES
        )
        self._patch(verification, "SUITES", suites)
        cm = gaussian.CovarianceMatrix
        self._patch(cm, "is_pure", self._count(cm.is_pure, "gaussian.is_pure.calls"))
        self._patch(cm, "__post_init__", self._count(cm.__post_init__, "gaussian.cm_validations"))
        st = gaussian.SymplecticTransform
        self._patch(st, "__post_init__", self._count(st.__post_init__, "gaussian.transform_validations"))
        for attr in LINALG:
            self._patch(np.linalg, attr, self._linalg(getattr(np.linalg, attr)))

    def _count_checks(self, results) -> None:
        self.counters["verification.checks"] += sum(r.checks for r in results)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        columns: dict[str, list] = {k: [] for k in ("gid", "name", "parent", "request", "start", "end")}
        for buf in self._buffers:
            n = len(buf.start)
            columns["gid"].append((np.int64(buf.slot) << _SLOT_BITS) | np.arange(n, dtype=np.int64))
            columns["name"].append(np.frombuffer(buf.name, dtype=np.int32)[:n])
            columns["parent"].append(np.frombuffer(buf.parent, dtype=np.int64)[:n])
            columns["request"].append(np.frombuffer(buf.request, dtype=np.int32)[:n])
            columns["start"].append(np.frombuffer(buf.start, dtype=np.float64)[:n])
            columns["end"].append(np.frombuffer(buf.end, dtype=np.float64)[:n])
        out = {k: np.concatenate(v) if v else np.zeros(0) for k, v in columns.items()}
        out["names"] = np.array(self.names)
        return out

    def dump(self, path) -> None:
        np.savez(path, **self.spans())


def load(path) -> dict[str, np.ndarray]:
    with np.load(path, allow_pickle=False) as data:
        return {k: data[k] for k in data.files}


def _union_length(starts: np.ndarray, ends: np.ndarray) -> float:
    order = np.argsort(starts, kind="stable")
    starts, ends = starts[order], ends[order]
    reach = np.maximum.accumulate(ends)
    fresh = np.r_[True, starts[1:] > reach[:-1]]
    heads = np.flatnonzero(fresh)
    return float((np.maximum.reduceat(ends, heads) - starts[heads]).sum())


def summarize(spans: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, total seconds and self seconds."""
    gid = spans["gid"].astype(np.int64)
    if gid.size == 0:
        return {}
    order = np.argsort(gid)
    dur = spans["end"] - spans["start"]
    parent = spans["parent"].astype(np.int64)
    pos = np.searchsorted(gid, parent, sorter=order)
    pos = np.minimum(pos, gid.size - 1)
    prow = np.where(parent >= 0, order[pos], -1)
    has_parent = prow >= 0
    covered = np.bincount(prow[has_parent], weights=dur[has_parent], minlength=gid.size)
    slot = gid >> _SLOT_BITS
    cross = has_parent & (slot != slot[np.maximum(prow, 0)])
    for row in np.unique(prow[cross]):
        kids = prow == row
        starts = np.maximum(spans["start"][kids], spans["start"][row])
        ends = np.minimum(spans["end"][kids], spans["end"][row])
        covered[row] = _union_length(starts, np.maximum(ends, starts))
    self_time = dur - covered
    names = spans["names"]
    out = {}
    for name_id in np.unique(spans["name"]):
        rows = spans["name"] == name_id
        out[str(names[name_id])] = {
            "calls": float(rows.sum()),
            "total_s": float(dur[rows].sum()),
            "self_s": float(self_time[rows].sum()),
        }
    return out
