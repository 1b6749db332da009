"""Per-layer host-time attribution for one cProfile'd benchmark pass.

Every ``repro`` source file belongs to exactly one layer (``LAYER_FILES``;
the first matching prefix wins). A Python function's ``tottime`` goes to
its file's layer. Code generated at run time by the routine and trace
compilers (``<xroutine …>``/``<xtrace …>`` pseudo-files) goes to
``core.compile``. Everything else -- C builtins, stdlib, numpy and the
benchmark's own glue -- has no layer of its own: its ``tottime`` is
split over its callers along the profile's caller edges (each edge
carries the share of the callee's ``tottime`` spent on calls from that
caller), resolved transitively until a ``repro`` frame is reached. Time
that never reaches a ``repro`` frame lands in ``other``.

Every function's ``tottime`` is handed out in full, so the layer split
sums to the profiled total (``trace.profiled_s``) up to float rounding.
"""

from __future__ import annotations

import pstats
from typing import Dict, List, Tuple

__all__ = ["LAYERS", "COUNTS", "ENTRY_POINTS", "layer_of_file",
           "attribute", "counts", "cumulative", "top_functions"]

#: (path prefix under ``src/repro/``, layer); the first match wins
LAYER_FILES: Tuple[Tuple[str, str], ...] = (
    ("sim/stats.py", "sim.stats"),
    ("sim/", "sim.kernel"),
    ("core/controller.py", "core.controller"),
    ("core/xcache.py", "core.controller"),
    ("core/metatag.py", "core.metatag"),
    ("core/compile.py", "core.compile"),
    ("core/trace_compile.py", "core.compile"),
    ("core/", "core.backend"),
    ("mem/dram.py", "mem.dram"),
    ("mem/addrcache.py", "mem.addrcache"),
    ("mem/mshr.py", "mem.mshr"),
    ("mem/", "mem.layout"),
    ("dsa/", "dsa"),
    ("data/", "data"),
    ("workloads/", "workloads"),
    ("obs/", "obs"),
    ("svc/", "svc"),
    ("harness/", "harness"),
    ("__init__.py", "core.backend"),   # the package root re-exports core
)

LAYERS: Tuple[str, ...] = (
    "sim.kernel", "sim.stats", "core.controller", "core.metatag",
    "core.backend", "core.compile", "mem.layout", "mem.dram",
    "mem.addrcache", "mem.mshr", "dsa", "data", "workloads", "obs", "svc",
    "harness", "other",
)

#: exact work counts: metric -> (file under src/repro/, function name)
#: pairs whose profiled call counts are summed. Methods are matched by
#: name within their file, so ``inc`` covers ``Counter.inc`` and
#: ``StatGroup.inc``; layout reads and writes count the primitives only
#: (``read_u32`` delegates to ``read_uint``).
COUNTS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "sim.kernel.scheduled": (("sim/kernel.py", "call_at"),
                             ("sim/kernel.py", "call_after"),
                             ("sim/kernel.py", "call_at_many")),
    "sim.stats.inc_calls": (("sim/stats.py", "inc"),),
    "core.controller.meta_ops": (("core/controller.py", "meta_load"),
                                 ("core/controller.py", "meta_store")),
    "mem.layout.reads": tuple(("mem/layout.py", name) for name in (
        "read_uint", "read_int", "read_f64", "read_block")),
    "mem.layout.writes": tuple(("mem/layout.py", name) for name in (
        "write_uint", "write_int", "write_f64", "write_block")),
    "mem.dram.requests": (("mem/dram.py", "request"),),
    "mem.dram.batch_calls": (("mem/dram.py", "request_batch"),),
    "mem.addrcache.accesses": (("mem/addrcache.py", "access"),),
    "data.ref_calls": (("data/hashindex.py", "probe"),
                       ("data/csr.py", "spgemm_inner"),
                       ("data/csr.py", "spgemm_outer"),
                       ("data/csr.py", "spgemm_gustavson"),
                       ("data/graphs.py", "pagerank_reference"),
                       ("data/graphs.py", "pagerank_event_driven")),
    "obs.publish_calls": (("obs/bus.py", "publish"),),
}

#: entry points whose cumulative time layers.json reports, for shares
#: such as "back-end execute is N% of Simulator.run"
ENTRY_POINTS: Dict[str, Tuple[str, str]] = {
    "sim.kernel.run_s": ("sim/kernel.py", "run"),
    "core.controller.back_end_execute_s": ("core/controller.py",
                                           "_back_end_execute"),
}

_MARKER = "/repro/"
FuncKey = Tuple[str, int, str]


def _repro_path(filename: str) -> str:
    """The path under ``src/repro/`` of a profiled file, or ''."""
    norm = filename.replace("\\", "/")
    cut = norm.rfind(_MARKER)
    return norm[cut + len(_MARKER):] if cut >= 0 else ""


def layer_of_file(filename: str) -> str:
    """The layer a profiled code object's file belongs to, or '' when
    the file is outside ``repro`` (builtins, stdlib, numpy, benchmark)."""
    if filename.startswith(("<xroutine ", "<xtrace ")):
        return "core.compile"
    rel = _repro_path(filename)
    if not rel:
        return ""
    for prefix, layer in LAYER_FILES:
        if rel.startswith(prefix):
            return layer
    return "other"


def attribute(stats: pstats.Stats) -> Dict[str, float]:
    """Self time per layer; the values sum to the profile's total
    ``tottime``."""
    table = stats.stats   # func -> (cc, nc, tt, ct, callers)
    resolved: Dict[FuncKey, Dict[str, float]] = {}

    def shares(func: FuncKey, visiting: frozenset) -> Dict[str, float]:
        """Fractions of ``func``'s own time owed to each layer (they
        sum to 1; a recursive caller edge back into ``visiting`` is
        dropped)."""
        if func in resolved:
            return resolved[func]
        layer = layer_of_file(func[0])
        if layer:
            out = {layer: 1.0}
        else:
            callers = table[func][4] if func in table else {}
            edges = [(caller, edge[2]) for caller, edge in callers.items()
                     if caller not in visiting]
            weight = sum(w for _, w in edges)
            if weight <= 0.0:
                # no time on the edges: weight by call count instead
                edges = [(caller, float(callers[caller][1]))
                         for caller, _ in edges]
                weight = sum(w for _, w in edges)
            out = {}
            if weight <= 0.0:
                out["other"] = 1.0
            else:
                inner = visiting | {func}
                for caller, w in edges:
                    for name, part in shares(caller, inner).items():
                        out[name] = out.get(name, 0.0) + part * w / weight
        resolved[func] = out
        return out

    totals = {layer: 0.0 for layer in LAYERS}
    for func, (_cc, _nc, tottime, _ct, _callers) in table.items():
        for layer, part in shares(func, frozenset()).items():
            totals[layer] += tottime * part
    return totals


def _by_name(stats: pstats.Stats, column: int) -> Dict[Tuple[str, str], float]:
    """One stats column summed per (file under src/repro/, function)."""
    out: Dict[Tuple[str, str], float] = {}
    for (filename, _line, name), entry in stats.stats.items():
        rel = _repro_path(filename)
        if rel:
            out[(rel, name)] = out.get((rel, name), 0) + entry[column]
    return out


def counts(stats: pstats.Stats) -> Dict[str, int]:
    """The ``COUNTS`` call counts of one profile."""
    calls = _by_name(stats, 1)
    return {metric: sum(calls.get(key, 0) for key in keys)
            for metric, keys in COUNTS.items()}


def cumulative(stats: pstats.Stats) -> Dict[str, float]:
    """Cumulative seconds of the ``ENTRY_POINTS``."""
    cum = _by_name(stats, 3)
    return {name: cum.get(key, 0.0) for name, key in ENTRY_POINTS.items()}


def top_functions(stats: pstats.Stats, limit: int = 30) -> List[dict]:
    """The ``limit`` functions with the most self time, with layers."""
    rows = sorted(stats.stats.items(), key=lambda item: -item[1][2])
    out = []
    for (filename, line, name), (_cc, nc, tottime, cumtime, _) in rows[:limit]:
        where = _repro_path(filename) or filename.replace("\\", "/").rsplit(
            "/", 1)[-1]   # no host paths for stdlib and site-packages
        out.append({
            "function": f"{where}:{line}({name})",
            "layer": layer_of_file(filename) or "(callers)",
            "calls": nc,
            "self_s": tottime,
            "cum_s": cumtime,
        })
    return out
