"""Per-layer spans recorded from outside the program.

The layers are the modules of ``sloccrank``. A span wraps each public
function at every place a ``sloccrank`` module looks it up (for example both
``sloccrank.classifier.rank_exact`` and ``sloccrank.slocc.rank_exact``), and
the two methods ``CoefficientMatrix.to_matrix`` and ``ExactMatrix.matmul`` on
their classes. Spans are kept in memory while a round runs and folded into
per-layer totals when it ends. A layer's self time is its span's time minus
the time of its child spans; everything is single-threaded, so no layer
waits on another.

Creations of ``ComplexRational`` and repeated ``rank_exact`` inputs are
counted in a pass of their own (``CountingPass``), because counting them
costs more than the work it counts.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

from sloccrank import classifier, linalg, matricizer, scalars, slocc, states

# metric prefix -> functions whose calls are that layer's spans
_FUNCTION_LAYERS: Tuple[Tuple[str, Tuple[Callable, ...]], ...] = (
    ("states.state_from_json", (states.state_from_json,)),
    ("states.gen_dicke", (states.gen_dicke3, states.gen_dicke4)),
    ("states.permute_qudits", (states.permute_qudits,)),
    ("matricizer.coefficient_matrix", (matricizer.coefficient_matrix,)),
    ("matricizer.permutation_set", (matricizer.permutation_set,)),
    ("linalg.rank_exact", (linalg.rank_exact,)),
    ("linalg.kron_all", (linalg.kron_all,)),
    ("linalg.det_exact", (linalg.det_exact,)),
    ("slocc.random_ilo", (slocc.random_ilo,)),
    ("slocc.apply_local", (slocc.apply_local,)),
    ("slocc.verify_theorem1", (slocc.verify_theorem1,)),
    ("slocc.rank_table", (slocc.rank_table,)),
    ("classifier.signature", (classifier.signature,)),
    ("classifier.dicke_scan", (classifier.dicke_scan,)),
    ("classifier.scan_to_csv", (classifier.scan_to_csv,)),
)
_METHOD_LAYERS = (
    ("matricizer.to_matrix", matricizer.CoefficientMatrix, "to_matrix"),
    ("linalg.matmul", linalg.ExactMatrix, "matmul"),
)

# time spent inside an item but in no wrapped layer
ITEM = "other"


def _count_work(name: str, counts: Dict[str, int], args, result) -> None:
    """Work counts, taken where the work happens."""
    if name == "states.gen_dicke":
        counts["terms"] += len(result.amplitudes)
    elif name == "matricizer.coefficient_matrix":
        counts["nnz"] += len(result.entries)
    elif name == "matricizer.permutation_set":
        counts["sigmas"] += len(result)
    elif name == "matricizer.to_matrix":
        counts["cells"] += result.rows * result.cols
        counts["nnz"] += len(args[0].entries)
    elif name == "linalg.rank_exact":
        m = args[0]
        counts["cells_in"] += m.rows * m.cols
        counts["rank_sum"] += result.rank
        counts["min_dim_sum"] += min(m.rows, m.cols)
    elif name == "linalg.kron_all":
        counts["cells_out"] += result.rows * result.cols
    elif name == "linalg.matmul":
        a, b = args[0], args[1]
        counts["mul_ops"] += a.rows * a.cols * b.cols


def _lookup_sites(fn: Callable) -> List[Tuple[object, str]]:
    """Every (sloccrank module, attribute) through which ``fn`` is reached."""
    sites = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == "sloccrank" or mod_name.startswith("sloccrank.")):
            continue
        for attr, value in vars(mod).items():
            if value is fn:
                sites.append((mod, attr))
    return sites


class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


class Tracer:
    """Records spans around every layer call while installed."""

    def __init__(self):
        self.spans: List[list] = []  # [name, parent index, start ns, end ns]
        self._stack: List[int] = []
        self.counts: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._patches = _Patches()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, parent, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            layer = counts[name]
            layer["calls"] += 1
            if name == "linalg.det_exact" and parent >= 0 and spans[parent][0] == "slocc.random_ilo":
                layer["calls_in_random_ilo"] += 1
            _count_work(name, layer, args, result)
            return result

        return traced

    def install(self) -> None:
        for name, fns in _FUNCTION_LAYERS:
            for fn in fns:
                wrapper = self._wrap(name, fn)
                for owner, attr in _lookup_sites(fn):
                    self._patches.set(owner, attr, wrapper)
        for name, cls, attr in _METHOD_LAYERS:
            self._patches.set(cls, attr, self._wrap(name, getattr(cls, attr)))

    def uninstall(self) -> None:
        self._patches.undo()

    def item(self, run: Callable, arg):
        """Run one workload item inside a root span."""
        return self._wrap(ITEM, run)(arg)

    def self_ns(self) -> Dict[str, int]:
        """Self time per layer over all recorded spans."""
        child = [0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, int] = defaultdict(int)
        for k, (name, _, start, end) in enumerate(self.spans):
            out[name] += end - start - child[k]
        return out

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()


class CountingPass:
    """Counts ComplexRational creations and distinct rank_exact inputs."""

    def __init__(self):
        self.created = 0
        self.rank_calls = 0
        self._rank_inputs = set()
        self._patches = _Patches()

    def install(self) -> None:
        init = scalars.ComplexRational.__init__

        def counting_init(obj, *args, **kwargs):
            self.created += 1
            init(obj, *args, **kwargs)

        self._patches.set(scalars.ComplexRational, "__init__", counting_init)
        rank_exact = linalg.rank_exact

        def counting_rank(m, *args, **kwargs):
            self.rank_calls += 1
            self._rank_inputs.add(tuple(tuple((x.a, x.b, x.d) for x in row) for row in m.data))
            return rank_exact(m, *args, **kwargs)

        for owner, attr in _lookup_sites(rank_exact):
            self._patches.set(owner, attr, counting_rank)

    def uninstall(self) -> None:
        self._patches.undo()

    @property
    def distinct_rank_inputs(self) -> int:
        return len(self._rank_inputs)


def layer_metrics(self_ms: Dict[str, float], counts: Dict[str, Dict[str, int]],
                  counting: CountingPass) -> Dict[str, float]:
    """Per-round layer metrics named as in BENCHMARK.json's per_layer list."""

    def c(layer: str, key: str) -> int:
        return counts.get(layer, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: Dict[str, float] = {}
    for name, _ in _FUNCTION_LAYERS:
        out[f"{name}.self_ms"] = self_ms.get(name, 0.0)
    for name, _, _ in _METHOD_LAYERS:
        out[f"{name}.self_ms"] = self_ms.get(name, 0.0)
    out[f"{ITEM}.self_ms"] = self_ms.get(ITEM, 0.0)
    for layer in ("states.state_from_json", "matricizer.coefficient_matrix",
                  "linalg.rank_exact", "linalg.det_exact", "slocc.apply_local",
                  "classifier.signature"):
        out[f"{layer}.calls"] = c(layer, "calls")
    out["states.gen_dicke.terms"] = c("states.gen_dicke", "terms")
    out["matricizer.coefficient_matrix.nnz"] = c("matricizer.coefficient_matrix", "nnz")
    out["matricizer.permutation_set.sigmas"] = c("matricizer.permutation_set", "sigmas")
    out["matricizer.to_matrix.cells"] = c("matricizer.to_matrix", "cells")
    out["matricizer.to_matrix.fill"] = ratio(c("matricizer.to_matrix", "nnz"),
                                             c("matricizer.to_matrix", "cells"))
    out["linalg.rank_exact.cells_in"] = c("linalg.rank_exact", "cells_in")
    out["linalg.rank_exact.rank_fill"] = ratio(c("linalg.rank_exact", "rank_sum"),
                                               c("linalg.rank_exact", "min_dim_sum"))
    out["linalg.kron_all.cells_out"] = c("linalg.kron_all", "cells_out")
    out["linalg.matmul.mul_ops"] = c("linalg.matmul", "mul_ops")
    out["slocc.random_ilo.accept_ratio"] = ratio(c("slocc.random_ilo", "calls"),
                                                 c("linalg.det_exact", "calls_in_random_ilo"))
    out["scalars.ComplexRational.created"] = counting.created
    out["linalg.rank_exact.distinct_share"] = ratio(counting.distinct_rank_inputs,
                                                    counting.rank_calls)
    return out
