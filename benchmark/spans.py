"""Span recorder for the traced benchmark run.

The recorder wraps the library's public functions and methods from the
outside: each wrapped call opens a span (name, start, end, parent) that is
kept in flat in-memory arrays and written out once at the end.  A layer's
self time is a span's duration minus the time its child spans cover.  A name
that the library no longer has is reported as absent instead of failing.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from importlib import import_module
from typing import Callable, Optional

import numpy as np


class SpanRecorder:
    """Flat span store; ``active`` switches recording on and off."""

    def __init__(self, workload: str):
        self.workload = workload
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.nested = array("b")  # 1 when an enclosing span has the same name
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._open_names: dict[int, int] = defaultdict(int)
        self.active = False

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.nested.append(1 if self._open_names[nid] else 0)
        self.end.append(0)
        self._stack.append(idx)
        self._open_names[nid] += 1
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()
        self._open_names[self.name_id[idx]] -= 1

    def count(self, name: str, k: int = 1) -> None:
        if self.active:
            self.counts[name] += k

    def span(self, name: str):
        return _SpanContext(self, name)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "nested": np.frombuffer(self.nested, dtype=np.int8),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), workload=np.array(self.workload),
                 **self.arrays())

    def summarize(self, roots: Optional[set[str]] = None) -> dict[str, "SpanStats"]:
        """Per-name calls, inclusive time of the outermost spans and self
        time; with ``roots`` given, only spans under a root span of one of
        those names count."""
        a = self.arrays()
        n = len(a["name_id"])
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64) / 1e9
        child = np.zeros(n)
        parent = a["parent"]
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        root = np.arange(n)
        for i in range(n):  # parents precede children
            if parent[i] >= 0:
                root[i] = root[parent[i]]
        keep = np.ones(n, dtype=bool)
        if roots is not None:
            root_ok = np.array([self.names[nid] in roots for nid in a["name_id"]])
            keep = root_ok[root]
        out: dict[str, SpanStats] = {}
        ids = a["name_id"][keep]
        for nid in np.unique(ids):
            sel = keep & (a["name_id"] == nid)
            outer = sel & (a["nested"] == 0)
            out[self.names[nid]] = SpanStats(
                calls=int(sel.sum()),
                inclusive_s=float(dur[outer].sum()),
                self_s=float((dur[sel] - child[sel]).sum()),
            )
        return out


@dataclass
class SpanStats:
    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0


class _SpanContext:
    def __init__(self, rec: SpanRecorder, name: str):
        self.rec, self.name, self.idx = rec, name, None

    def __enter__(self):
        if self.rec.active:
            self.idx = self.rec.open(self.name)
        return self

    def __exit__(self, *exc):
        if self.idx is not None:
            self.rec.close(self.idx)
        return False


@dataclass(frozen=True)
class Target:
    """One public name to wrap: ``module:Attr`` or ``module:Class.method``,
    recorded as span ``span``; ``observe`` sees each result."""

    span: str
    where: str
    observe: Optional[Callable] = None


def _count_none(rec, out):
    rec.count("correction.unique_decode.none", out is None)


def _count_list(rec, out):
    rec.count("listcorr.list_decode.items", len(out))


def _count_approximators(rec, out):
    rec.count("listcorr.approximators", len(out))


TARGETS = (
    Target("juntas.evaluate", "multislice.juntas:JuntaPolynomial.evaluate"),
    Target("juntas.truth_table", "multislice.juntas:JuntaPolynomial.truth_table"),
    Target("juntas.grid_min_nonzero", "multislice.juntas:grid_min_nonzero"),
    Target("juntas.min_slice_nonzero_prime", "multislice.juntas:min_slice_nonzero_prime"),
    Target("correction.oracle", "multislice.correction:NoisyOracle.query"),
    Target("correction.unique_decode", "multislice.correction:brute_force_unique_decode", _count_none),
    Target("correction.gadget.sample", "multislice.correction:Gadget.sample_shifts"),
    Target("correction.torsion", "multislice.correction:torsion_correct"),
    Target("correction.hitting_set", "multislice.correction:hitting_set"),
    Target("subgrids.random_subgrid", "multislice.subgrids:random_subgrid"),
    Target("subgrids.embed_all", "multislice.subgrids:SubgridMap.embed_all"),
    Target("listcorr.build_approximators", "multislice.listcorr:build_approximators",
           _count_approximators),
    Target("listcorr.approximator_eval", "multislice.listcorr:approximator_eval"),
    Target("listcorr.list_decode", "multislice.listcorr:brute_force_list", _count_list),
    Target("listcorr.restrict", "multislice.listcorr:restrict_to_identification"),
    Target("walks.construct.distance", "multislice.walks:walk_from_distance"),
    Target("walks.construct.odlsz", "multislice.walks:walk_odlsz"),
    Target("walks.construct.subgrid_identification", "multislice.walks:walk_subgrid_identification"),
    Target("walks.doubly_stochastic", "multislice.walks:WalkMatrix.is_doubly_stochastic"),
    Target("walks.symmetric", "multislice.walks:WalkMatrix.is_symmetric"),
    Target("walks.respects_symmetries", "multislice.walks:respects_symmetries"),
    Target("walks.independence", "multislice.walks:independence_report"),
    Target("walks.dense", "multislice.walks:WalkMatrix.dense"),
    Target("walks.spectral", "multislice.walks:spectral_report"),
    Target("slices.enumerate", "multislice.slices:enumerate_slice"),
    Target("slices.rank_index", "multislice.slices:rank_index"),
    Target("snf.rational_rank", "multislice.snf:rational_rank"),
    Target("snf.smith", "multislice.snf:smith_decomposition"),
    Target("tableaux.enumerate_ssyt", "multislice.tableaux:enumerate_ssyt"),
    Target("tableaux.chi_vector", "multislice.tableaux:chi_vector"),
    Target("tableaux.gram_det", "multislice.tableaux:gram_det"),
    Target("fields.grid_minimum", "multislice.fields:grid_minimum_matches_formula"),
)


def _wrap(rec: SpanRecorder, name: str, fn, observe):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        idx = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if observe is not None:
            observe(rec, out)
        return out

    return traced


def instrument(rec: SpanRecorder) -> list[str]:
    """Wrap every target in place; returns the targets that could not be
    found.  A module-level function is replaced under every name that binds
    it in the package's modules, so calls made through ``from ... import``
    bindings are traced too."""
    absent = []
    for target in TARGETS:
        mod_name, path = target.where.split(":")
        try:
            module = import_module(mod_name)
            owner = module
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, parts[-1])
        except (ImportError, AttributeError):
            absent.append(target.span)
            continue
        wrapped = _wrap(rec, target.span, original, target.observe)
        if owner is not module:  # a method: patch the class
            setattr(owner, parts[-1], wrapped)
            continue
        holders = [m for key, m in list(sys.modules.items())
                   if key == "multislice" or key.startswith("multislice.")]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapped)
    return absent
