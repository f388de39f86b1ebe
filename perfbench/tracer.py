"""In-memory span tracer that wraps uob's public functions from the outside.

Nothing in ``src/uob`` knows about tracing. ``Tracer.install`` replaces each
traced function at every ``uob`` module that binds it (``uob.cli.verify_basis``
as well as ``uob.verify.verify_basis``), wraps the ``E`` callables that
``markov_expectation`` returns, and counts calls of ``BlockOperator.__matmul__``,
``BasicConstruction.left_rep`` and ``epsilon``. ``uninstall`` restores every
binding. Spans stay in compact arrays until ``write`` saves them.
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# (defining module, function, span name). Spans give calls and self time.
SPANS = (
    ("uob.cli", "main", "cli.main"),
    ("uob.inclusion", "check_spectral_condition", "inclusion.check_spectral_condition"),
    ("uob.inclusion", "markov_trace", "inclusion.markov_trace"),
    ("uob.inclusion", "embed", "inclusion.embed"),
    ("uob.expectation", "mixed_unitary_channel", "expectation.mixed_unitary_channel"),
    ("uob.algebra", "circulant", "algebra.circulant"),
    ("uob.tower", "build_basic_construction", "tower.build_basic_construction"),
    ("uob.tower", "basic_construction_basis", "tower.basic_construction_basis"),
    ("uob.tower", "dual_expectation", "tower.dual_expectation"),
    ("uob.verify", "verify_unitary", "verify.verify_unitary"),
    ("uob.verify", "verify_orthonormality", "verify.verify_orthonormality"),
    ("uob.verify", "verify_reconstruction", "verify.verify_reconstruction"),
    ("uob.verify", "verify_trace_conditions", "verify.verify_trace_conditions"),
    ("uob.io", "basis_to_dict", "io.basis_to_dict"),
    ("uob.io", "basis_from_dict", "io.basis_from_dict"),
)

# Constructions: spans that also record whether they returned and how many
# elements they built.
CONSTRUCTIONS = (
    ("uob.bases", "abelian_basis", "bases.abelian"),
    ("uob.bases", "weyl_basis", "bases.weyl"),
    ("uob.bases", "full_matrix_sub_basis", "bases.full_matrix_sub"),
    ("uob.bases", "full_matrix_super_basis", "bases.full_matrix_super"),
    ("uob.bases", "tensor_basis", "bases.tensor"),
)

# Per-layer metrics in output order, with units. BENCHMARK.json lists the same.
LAYER_METRICS = (
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("inclusion.check_spectral_condition.calls", "count"),
    ("inclusion.check_spectral_condition.self_s", "s"),
    ("inclusion.markov_trace.self_s", "s"),
    ("inclusion.embed.calls", "count"),
    ("inclusion.embed.self_s", "s"),
    ("expectation.markov_expectation.calls", "count"),
    ("expectation.markov_expectation.self_s", "s"),
    ("expectation.E.calls", "count"),
    ("expectation.E.self_s", "s"),
    ("expectation.mixed_unitary_channel.self_s", "s"),
    ("algebra.matmul.calls", "count"),
    ("algebra.epsilon.calls", "count"),
    ("algebra.circulant.self_s", "s"),
    *(
        (f"{name}.{stat}", "count" if stat == "calls" else "s")
        for _, _, name in CONSTRUCTIONS
        for stat in ("calls", "self_s")
    ),
    ("bases.elements_built", "count"),
    ("bases.attempts", "count"),
    ("bases.attempt_yield", "ratio"),
    ("tower.build_basic_construction.self_s", "s"),
    ("tower.basic_construction_basis.self_s", "s"),
    ("tower.dual_expectation.calls", "count"),
    ("tower.dual_expectation.self_s", "s"),
    ("tower.left_rep.calls", "count"),
    ("verify.verify_unitary.self_s", "s"),
    ("verify.verify_orthonormality.self_s", "s"),
    ("verify.verify_reconstruction.self_s", "s"),
    ("verify.verify_trace_conditions.self_s", "s"),
    ("verify.tampered", "count"),
    ("verify.reject_yield", "ratio"),
    ("io.basis_to_dict.self_s", "s"),
    ("io.basis_from_dict.self_s", "s"),
    ("io.load_spec.self_s", "s"),
    ("io.bytes_written", "B"),
    ("io.bytes_read", "B"),
    ("trace.overhead_jobs_per_s", "1/s"),
    ("trace.overhead_frac", "ratio"),
)


class Tracer:
    """Spans (name, start, end, parent, job, returned) plus plain counters.

    ``job`` is the identifier shared by every span of one benchmark job; the
    workload advances it. ``counts`` holds call counts of the count-only
    wrappers and the counters workloads add (bytes, tampered copies).
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job_of = array("i")
        self.returned = array("b")
        self.built = Counter()  # span index -> elements returned, constructions only
        self.counts = Counter()
        self.job = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, span_name, fn, on_return=None):
        nid = self._name_ids.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.job_of.append(self.job)
            self.end.append(0.0)
            self.returned.append(0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            self.returned[idx] = 1
            return out if on_return is None else on_return(out, idx)

        return wrapper

    def _count(self, count_name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[count_name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _bytes_read(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            out = fn(path, *args, **kwargs)
            counts["io.bytes_read"] += os.path.getsize(path)
            return out

        return wrapper

    # -- install / uninstall ----------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, replacement):
        """Replace ``original`` wherever a loaded uob module binds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "uob" or mod_name.startswith("uob.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, replacement)

    def install(self):
        def built(basis, idx):
            self.built[idx] = basis.d
            return basis

        def traced_E(E, idx):
            wrapped = self._span("expectation.E", E)
            wrapped.phi, wrapped.spec = E.phi, E.spec
            return wrapped

        for mod, attr, span_name in SPANS:
            fn = getattr(sys.modules[mod], attr)
            self._rebind(fn, self._span(span_name, fn))
        for mod, attr, span_name in CONSTRUCTIONS:
            fn = getattr(sys.modules[mod], attr)
            self._rebind(fn, self._span(span_name, fn, built))
        fn = sys.modules["uob.expectation"].markov_expectation
        self._rebind(fn, self._span("expectation.markov_expectation", fn, traced_E))

        io = sys.modules["uob.io"]
        fn = io.load_spec
        self._rebind(fn, self._bytes_read(self._span("io.load_spec", fn)))
        fn = io.load_basis
        self._rebind(fn, self._bytes_read(fn))
        fn = sys.modules["uob.algebra"].epsilon
        self._rebind(fn, self._count("algebra.epsilon.calls", fn))
        op = sys.modules["uob.algebra"].BlockOperator
        self._patch(op, "__matmul__", self._count("algebra.matmul.calls", op.__matmul__))
        bc = sys.modules["uob.tower"].BasicConstruction
        self._patch(bc, "left_rep", self._count("tower.left_rep.calls", bc.left_rep))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def _arrays(self):
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int32)
        return name, dur, parent

    def layer_metrics(self, overhead_jobs_per_s: float, overhead_frac: float) -> dict:
        """Every LAYER_METRICS value: span calls, self time, counters and yields."""
        name, dur, parent = self._arrays()
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=self_time, minlength=k)
        values = dict(self.counts)
        for nid, span_name in enumerate(self.names):
            values[f"{span_name}.calls"] = int(calls[nid])
            values[f"{span_name}.self_s"] = float(self_s[nid])

        # Top-level constructions only: the ones no other construction called.
        is_construction = {
            nid for nid, n in enumerate(self.names) if n.startswith("bases.")
        }
        attempts = returned = elements = 0
        for idx in np.flatnonzero(np.isin(name, list(is_construction))):
            p = parent[idx]
            while p >= 0 and name[p] not in is_construction:
                p = parent[p]
            if p >= 0:
                continue
            attempts += 1
            if self.returned[idx]:
                returned += 1
                elements += self.built[int(idx)]
        values["bases.attempts"] = attempts
        values["bases.elements_built"] = elements
        values["bases.attempt_yield"] = returned / attempts if attempts else 0.0
        tampered = values.get("verify.tampered", 0)
        rejected = values.pop("verify.tampered_rejected", 0)
        values["verify.reject_yield"] = rejected / tampered if tampered else 0.0
        values["trace.overhead_jobs_per_s"] = overhead_jobs_per_s
        values["trace.overhead_frac"] = overhead_frac
        return {
            metric: {"value": values.get(metric, 0), "unit": unit}
            for metric, unit in LAYER_METRICS
        }

    def write(self, path):
        """Save every span (and the name table) as one compressed .npz file."""
        name, dur, parent = self._arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=name,
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=parent,
            job=np.frombuffer(self.job_of, dtype=np.int32),
            returned=np.frombuffer(self.returned, dtype=np.int8),
        )
