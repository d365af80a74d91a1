"""Per-layer tracing of the diraclab modules, applied from outside the package.

`Tracer.install` rebinds selected functions in every ``diraclab`` module
namespace that holds them (so calls through ``from .x import f`` aliases are
caught too) and `Tracer.uninstall` puts the originals back.  A target that no
longer resolves lands in `Tracer.missing`; the caller must refuse the run
rather than report 0 for a layer that was not measured.  Spans (name,
start, end, parent) and counts stay in memory until `write` dumps them.

Hot leaf functions (the Bessel series, the K closed form, ``apply_T``,
``field`` and ``enumerate_modes``) get counters only: a span per call would
cost more than the calls themselves.  Their time is part of the self time of
the spanned caller.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable

import numpy as np

SUITES = ("bessel", "ode", "green", "splitting", "kernel-identity", "eta", "cokernel", "decay", "e0-probe")

# span name -> "module:attribute"
SPANNED = {
    "cli.main": "diraclab.cli:main",
    "cli.emit": "diraclab.cli:_emit_report",
    "engine.stabilized_index": "diraclab.engine:stabilized_index",
    "engine.build_T": "diraclab.engine:build_T",
    "engine.codomain_window": "diraclab.engine:codomain_window",
    "engine.numerical_index": "diraclab.engine:numerical_index",
    "engine.nondegeneracy_minimum": "diraclab.engine:SymbolData.nondegeneracy_minimum",
    "engine.random_symbol": "diraclab.engine:random_symbol",
    "engine.winding_number": "diraclab.engine:winding_number",
    "engine.build_T_full": "diraclab.engine:build_T_full",
    "engine.reconstruct_eta": "diraclab.engine:reconstruct_eta",
    "engine.cokernel_correspondence": "diraclab.engine:cokernel_correspondence",
    "boundary.green_check": "diraclab.boundary:green_check",
    "boundary.split": "diraclab.boundary:split",
    "boundary.project": "diraclab.boundary:project",
    "boundary.random_field": "diraclab.boundary:random_field",
    "boundary.convention_probe": "diraclab.boundary:convention_probe",
    "verify.run_suite": "diraclab.verify:run_suite",  # renamed per suite: verify.<suite>
}

# count name -> ("module:attribute", amount added per call given the result, or None for 1)
COUNTED: dict[str, tuple[str, Callable | None]] = {
    "radial.bessel_series_calls": ("diraclab.radial:bessel_series", None),
    "radial.k_half_calls": ("diraclab.radial:modified_bessel_k_half", None),
    "engine.apply_T_calls": ("diraclab.engine:apply_T", None),
    "boundary.fields_built": ("diraclab.boundary:field", None),
    "lattice.domain_modes": ("diraclab.lattice:enumerate_modes", len),
}


def _resolve(target: str) -> tuple[object, str, Callable]:
    """(owner, attribute, function) for "module:Class.attr" or "module:attr"."""
    module_name, path = target.split(":")
    owner: object = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, fn: Callable, name: str) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        per_suite = name == "verify.run_suite"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            label = f"verify.{kwargs.get('name', args[0] if args else '')}" if per_suite else name
            spans.append([label, clock(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return wrapper

    def _counted(self, fn: Callable, key: str, amount: Callable | None) -> Callable:
        counts = self.counts
        if amount is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts[key] += amount(result)
                return result
        return wrapper

    def _matrix_sizes(self, fn: Callable) -> Callable:
        """Cells and nonzeros of each matrix handed to the rank decision."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(op, *args, **kwargs):
            counts["engine.matrix_cells"] += op.matrix.size
            counts["engine.matrix_nnz"] += int(np.count_nonzero(op.matrix))
            return fn(op, *args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, target: str, wrap: Callable[[Callable], Callable]) -> None:
        """Replace `target` by `wrap(target)` wherever a diraclab namespace binds it."""
        try:
            owner, attr, original = _resolve(target)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return
        replacement = wrap(original)
        if isinstance(owner, type):
            self._undo.append((owner, attr, original))
            setattr(owner, attr, replacement)
            return
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").partition(".")[0] != "diraclab":
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, original))
                    setattr(module, key, replacement)

    def install(self) -> None:
        for name, target in SPANNED.items():
            if name == "engine.numerical_index":
                self._patch(target, lambda fn: self._matrix_sizes(self._spanned(fn, name)))
            else:
                self._patch(target, lambda fn: self._spanned(fn, name))
        for key, (target, amount) in COUNTED.items():
            self._patch(target, lambda fn: self._counted(fn, key, amount))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: span totals, self times and counts.

        A span's self time is its duration minus that of its direct children.
        `outer` sums only spans not nested in a span of the same name, so a
        recursive call is not counted twice.
        """
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        outer: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_time[name] += end - start - child_time[i]
            if parent is None or self.spans[parent][0] != name:
                outer[name] += end - start
        layer_self: dict[str, float] = defaultdict(float)
        for name, value in self_time.items():
            layer_self[name.partition(".")[0]] += value

        out = {
            "engine.window_s": outer["engine.codomain_window"],
            "engine.assemble_s": self_time["engine.build_T"],
            "engine.rank_s": outer["engine.numerical_index"],
            "engine.nondegeneracy_s": outer["engine.nondegeneracy_minimum"],
            "engine.nondegeneracy_calls": calls["engine.nondegeneracy_minimum"],
            "engine.build_T_full_s": outer["engine.build_T_full"],
            "engine.correspondence_s": outer["engine.reconstruct_eta"] + outer["engine.cokernel_correspondence"],
            "boundary.green_check_s": outer["boundary.green_check"],
            "boundary.split_project_s": outer["boundary.split"] + outer["boundary.project"],
            "cli.parse_s": self_time["cli.main"],
            "cli.emit_s": outer["cli.emit"],
        }
        for key in (*COUNTED, "engine.matrix_cells", "engine.matrix_nnz"):
            out[key] = self.counts[key]
        for suite in SUITES:
            out[f"verify.{suite}_s"] = outer[f"verify.{suite}"]
        for layer in ("cli", "engine", "boundary", "verify"):
            out[f"{layer}.self_s"] = layer_self[layer]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "spans": [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans],
            "counts": dict(self.counts),
            "missing": self.missing,
        }
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
