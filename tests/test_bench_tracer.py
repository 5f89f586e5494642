"""The benchmark's layer tracer still fits the program.

``bench/tracer.py`` looks up functions and methods of ``sloccrank`` by name
when it is imported and installed; a renamed or deleted layer would
otherwise surface only in the minutes-long ``python3 -m pytest bench``.
"""

import importlib.util
import pathlib

from sloccrank import slocc
from sloccrank.classifier import signature, table1_suite

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_tracer_installs_on_this_program():
    t = _load_tracer().Tracer()
    try:
        t.install()
        records = slocc.run_theorem1_trials(1, seed=1)
    finally:
        t.uninstall()
    assert records[0]["result"] == "pass"
    assert t.counts["slocc.verify_theorem1"]["calls"] == 1
    assert t.counts["linalg.rank_exact"]["calls"] > 0


def test_benchmark_counting_pass_installs_on_this_program():
    # CountingPass wraps ComplexRational.__init__ and reads x.a, x.b and x.d
    # of every rank_exact input
    _, state, _ = table1_suite()[0]
    counting = _load_tracer().CountingPass()
    try:
        counting.install()
        slocc.run_theorem1_trials(1, seed=1)
        signature(state)
    finally:
        counting.uninstall()
    assert counting.created > 0 and counting.rank_calls > 0
