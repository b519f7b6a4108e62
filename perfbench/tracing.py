"""Outside-in spans for the stericzip benchmark.

The tracer replaces functions with timing wrappers at the places where
their callers look them up (a module attribute or a class attribute), so
nothing inside ``stericzip`` is edited.  Each span records its name, start,
end, parent span, request id and an optional count; spans stay in memory
until the run ends.  An untraced run never constructs a ``Tracer``, so it
installs no wrappers.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from time import perf_counter

# Span fields, stored as a list per span to keep the wrapper cheap.
NAME, START, END, PARENT, REQUEST, INFO = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.request, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def close(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, info=None):
        """``fn`` inside a span; ``info(args, result)`` fills the span's INFO field."""

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if info is not None:
                span[INFO] = info(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, info=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, info))

    def patch_saec(self, owner, attr: str = "minimize_saec") -> None:
        """Wrap ``minimize_saec`` and the objective handed to it.

        The objective span is named after the module that defined the
        objective's functions, so the contact objective of a build counts
        as ``builder`` and a classic test function as ``benchmarks``.
        """
        original = getattr(owner, attr)
        tracer = self

        def saec(objective, config, x0=None):
            batch = objective.evaluate_batch
            module = objective.evaluate.__module__.rsplit(".", 1)[-1]
            wrapped = dataclasses.replace(
                objective,
                evaluate=tracer.wrap(f"{module}.objective", objective.evaluate),
                evaluate_batch=None if batch is None else tracer.wrap(f"{module}.objective", batch),
            )
            return original(wrapped, config, x0)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap("optimize.minimize_saec", saec, _saec_info))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def _saec_info(args, result):
    return (result.evaluations_used, result.terminated_by)


def _evals(args, result):
    return result.evaluations_used


def _atoms(args, result):
    return result.n_atoms()


def install_stericzip(tracer: Tracer) -> None:
    """Wrap the calls into each stericzip module as their callers see them."""
    import stericzip.builder as builder
    import stericzip.energy as energy
    import stericzip.optimize as optimize
    import stericzip.pdbio as pdbio

    for attr in ("build_fibril_model", "apply_sequence", "mutate_residue",
                 "place_opposing_sheet", "solve_contact_placement"):
        tracer.patch(builder, attr, f"builder.{attr}")
    tracer.patch_saec(builder)
    tracer.patch_saec(optimize)
    tracer.patch(builder, "local_refine", "optimize.local_refine", _evals)
    for attr in ("transform_chain", "replicate_lattice", "reconcile_translation"):
        tracer.patch(builder, attr, f"geometry.{attr}")
    for module in (builder, energy):
        tracer.patch(module, "detect_hbonds", "energy.detect_hbonds")
        tracer.patch(module, "clash_audit", "energy.clash_audit")
    tracer.patch(energy, "structure_energy_report", "energy.structure_energy_report")
    tracer.patch(pdbio, "write_pdb", "pdbio.write_pdb")
    tracer.patch(pdbio, "parse_pdb", "pdbio.parse_pdb")
    tracer.patch(pdbio.Structure, "copy", "pdbio.Structure.copy", _atoms)
    tracer.patch(pdbio.Chain, "copy", "pdbio.Chain.copy", _atoms)


@dataclasses.dataclass
class Totals:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0


def summarize(spans: list[list], requests: set[int] | None = None) -> dict[str, Totals]:
    """Calls, inclusive time and self time per span name.

    Self time is a span's duration minus the time its children cover;
    spans of one thread nest, so the children never overlap.
    """
    child_seconds = defaultdict(float)
    for span in spans:
        if span[PARENT] >= 0:
            child_seconds[span[PARENT]] += span[END] - span[START]
    totals: dict[str, Totals] = defaultdict(Totals)
    for index, span in enumerate(spans):
        if requests is not None and span[REQUEST] not in requests:
            continue
        duration = span[END] - span[START]
        entry = totals[span[NAME]]
        entry.calls += 1
        entry.seconds += duration
        entry.self_seconds += duration - child_seconds[index]
    return totals


def outermost(spans: list[list], names: tuple[str, ...]) -> list[list]:
    """Spans named in ``names`` whose ancestors carry none of those names."""
    selected = []
    for span in spans:
        if span[NAME] not in names:
            continue
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] not in names:
            parent = spans[parent][PARENT]
        if parent < 0:
            selected.append(span)
    return selected
