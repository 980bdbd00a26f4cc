"""Span tracing of the library's layers, from outside the library.

``Tracer.install`` replaces each traced function at every module attribute
the program calls it through (its import sites) with a wrapper that
records a span: name, start, end, parent span and job id.  ``uninstall``
puts the originals back, and ``assert_clean`` proves that no wrapper is
left, so the untraced runs time the program exactly as shipped.

Spans are kept in memory in flat integer arrays and written out once, at
the end of the run.
"""

from __future__ import annotations

import array
import dataclasses
import importlib
import json
import time

# span name -> import sites "module:attribute" the program calls it through.
# A traced run refuses to start while any site is missing (see
# ``Tracer.install``): a span that silently read zero after a refactor of the
# library would look like a gain.
SPANS = {
    "cli.main": ["superhaar.cli:main"],
    "cli.build_parser": ["superhaar.cli:build_parser"],
    "cli.emit": ["superhaar.cli:_emit"],
    "fileio.load_algebra": ["superhaar.fileio:load_algebra"],
    "fileio.load_module": ["superhaar.fileio:load_module"],
    "fileio.element_to_json": ["superhaar.fileio:element_to_json"],
    "fileio.quotient_class_to_json": ["superhaar.fileio:quotient_class_to_json"],
    "fileio.matrix_to_json": ["superhaar.fileio:matrix_to_json"],
    "algebra.validate_superalgebra": ["superhaar.cli:validate_superalgebra"],
    "algebra.even_part_structure": ["superhaar.cli:even_part_structure",
                                    "superhaar.modules:even_part_structure"],
    "algebra.lambda_values": ["superhaar.cli:lambda_values",
                              "superhaar.frobenius:lambda_values"],
    "enveloping.multiply": ["superhaar.enveloping:multiply",
                            "superhaar.frobenius:multiply"],
    "enveloping.quotient_project": ["superhaar.enveloping:quotient_project",
                                    "superhaar.frobenius:quotient_project"],
    "enveloping.alpha": ["superhaar.frobenius:alpha"],
    "enveloping.act_on_quotient": ["superhaar.modules:act_on_quotient"],
    "frobenius.frobenius_matrix": ["superhaar.cli:frobenius_matrix",
                                   "superhaar.frobenius:frobenius_matrix"],
    "frobenius.invariant_z": ["superhaar.cli:invariant_z"],
    "frobenius.dual_pair": ["superhaar.cli:dual_pair"],
    "modules.validate_module": ["superhaar.cli:validate_module"],
    "modules.check_semisimple_over_even": ["superhaar.cli:check_semisimple_over_even"],
    "modules.invariant_projector": ["superhaar.cli:invariant_projector"],
    "modules.integral_matrix": ["superhaar.cli:integral_matrix"],
    "modules.module_action": ["superhaar.modules:module_action"],
    "modules.check_right_integral": ["superhaar.cli:check_right_integral"],
    "modules.brute_force_quotient_invariants": ["superhaar.cli:brute_force_quotient_invariants"],
    "linalg.mat_mul": ["superhaar.linalg:mat_mul"],
    "linalg.nullspace": ["superhaar.linalg:nullspace"],
    "linalg.rref": ["superhaar.linalg:rref"],
    "linalg.invert": ["superhaar.linalg:invert"],
    "linalg.rank": ["superhaar.linalg:rank"],
    "linalg.row_space_basis": ["superhaar.linalg:row_space_basis"],
    "linalg.minimal_polynomial": ["superhaar.linalg:minimal_polynomial"],
    "linalg.same_span": ["superhaar.linalg:same_span"],
}

LAYERS = ("cli", "fileio", "algebra", "enveloping", "frobenius", "modules", "linalg")


def _sites():
    """(span name, module, attribute) of every traced site, whether or not
    the module still has that attribute."""
    for name, sites in SPANS.items():
        for site in sites:
            mod_name, attr = site.split(":")
            yield name, importlib.import_module(mod_name), attr


class _Row(tuple):
    """A row of the pairing inverse that counts the entries ``invariant_z``
    reads from it; ``Tracer`` makes a subclass bound to itself."""
    tracer: "Tracer"

    def __getitem__(self, key):
        tr = self.tracer
        if tr._stack and tr._names[tr._stack[-1][1]] == "frobenius.invariant_z":
            tr.counts["frobenius.inverse_reads"] += 1
        return tuple.__getitem__(self, key)


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self):
        self._originals = {(mod.__name__, attr): getattr(mod, attr)
                           for _, mod, attr in _sites() if hasattr(mod, attr)}
        self.missing = [f"{mod.__name__}.{attr}" for _, mod, attr in _sites()
                        if not hasattr(mod, attr)]
        self._names = list(SPANS)
        self._ids = {n: t for t, n in enumerate(self._names)}
        self.name_ids = array.array("q")
        self.starts = array.array("q")
        self.ends = array.array("q")
        self.parents = array.array("q")
        self.job_ids = array.array("q")
        self.job = 0
        self._row = type("Row", (_Row,), {"tracer": self})
        self._stack: list[tuple[int, int]] = []   # (span index, name id)
        self.counts = {"frobenius.inverse_reads": 0, "frobenius.inverse_entries": 0,
                       "frobenius.pairing_nonzeros": 0, "frobenius.two_pow_m": 0,
                       "modules.module_dim": 0}

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        if self.missing:
            raise RuntimeError("traced sites missing from the program, update "
                               f"tracer.SPANS: {', '.join(self.missing)}")
        wrappers = {}
        for name, mod, attr in _sites():
            orig = self._originals[(mod.__name__, attr)]
            if id(orig) not in wrappers:
                wrappers[id(orig)] = self._wrap(name, orig)
            setattr(mod, attr, wrappers[id(orig)])

    def uninstall(self) -> None:
        for (mod_name, attr), orig in self._originals.items():
            setattr(importlib.import_module(mod_name), attr, orig)

    def assert_clean(self) -> None:
        """Every traced site holds its original function."""
        for (mod_name, attr), orig in self._originals.items():
            now = getattr(importlib.import_module(mod_name), attr)
            if now is not orig or hasattr(now, "__perfbench_span__"):
                raise RuntimeError(f"{mod_name}.{attr} is still wrapped")

    def _wrap(self, name: str, fn):
        nid = self._ids[name]
        post = {"frobenius.frobenius_matrix": self._after_frobenius_matrix,
                "fileio.load_module": self._after_load_module}.get(name)
        clock = time.perf_counter_ns
        stack = self._stack
        starts, ends = self.starts, self.ends

        def wrapper(*args, **kwargs):
            idx = len(starts)
            self.name_ids.append(nid)
            self.parents.append(stack[-1][0] if stack else -1)
            self.job_ids.append(self.job)
            ends.append(0)
            stack.append((idx, nid))
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            return post(result) if post else result

        wrapper.__perfbench_span__ = name
        wrapper.__wrapped__ = fn
        return wrapper

    # -- size probes at layer boundaries -------------------------------------

    # Each probe raises when the result no longer has the shape it reads, so
    # that a count cannot drop to zero unnoticed when the library changes.

    def _after_frobenius_matrix(self, fm):
        entries, inverse = getattr(fm, "entries", None), getattr(fm, "inverse", None)
        if not (dataclasses.is_dataclass(fm) and isinstance(entries, tuple)
                and isinstance(inverse, tuple)):
            raise RuntimeError("frobenius_matrix no longer returns a dataclass with "
                               "tuple fields entries and inverse; update the tracer's probe")
        self.counts["frobenius.two_pow_m"] = max(self.counts["frobenius.two_pow_m"],
                                                 len(entries))
        self.counts["frobenius.pairing_nonzeros"] += sum(
            1 for row in entries for e in row if e.terms)
        self.counts["frobenius.inverse_entries"] += sum(len(row) for row in inverse)
        return dataclasses.replace(fm, inverse=tuple(self._row(row) for row in inverse))

    def _after_load_module(self, module):
        if not isinstance(getattr(module, "dim", None), int):
            raise RuntimeError("load_module no longer returns a module with an int dim; "
                               "update the tracer's probe")
        self.counts["modules.module_dim"] = max(self.counts["modules.module_dim"], module.dim)
        return module

    # -- analysis ------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: call count, inclusive time of the outermost calls,
        and self time (duration minus the part its child spans cover)."""
        names, parents = self.name_ids.tolist(), self.parents.tolist()
        durs = [e - s for s, e in zip(self.starts.tolist(), self.ends.tolist())]
        child = [0] * len(durs)
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += durs[i]
        k = len(self._names)
        calls, total, self_ns = [0] * k, [0] * k, [0] * k
        path, open_names = [], [0] * k     # ancestors of span i, by name
        for i, (nid, p) in enumerate(zip(names, parents)):
            while path and path[-1] != p:
                open_names[names[path.pop()]] -= 1
            calls[nid] += 1
            self_ns[nid] += durs[i] - child[i]
            if not open_names[nid]:
                total[nid] += durs[i]
            path.append(i)
            open_names[nid] += 1
        return {name: {"calls": calls[t], "s": total[t] / 1e9, "self_s": self_ns[t] / 1e9}
                for t, name in enumerate(self._names)}

    def write(self, path: str) -> None:
        """Spans as ``<path>.json`` (span names and column order) and
        ``<path>.i64``: the columns one after another, each a native int64
        array of one value per span."""
        columns = {"name": self.name_ids, "start_ns": self.starts, "end_ns": self.ends,
                   "parent": self.parents, "job": self.job_ids}
        with open(path + ".i64", "wb") as fh:
            for arr in columns.values():
                arr.tofile(fh)
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"spans": len(self.starts), "names": self._names,
                       "columns": list(columns)}, fh, indent=1)
