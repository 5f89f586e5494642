"""The benchmark's layer tracer still fits the program.

``bench/tracer.py`` looks up functions and methods of ``sloccrank`` by name
when it is imported and installed; a renamed or deleted layer would
otherwise surface only in the minutes-long ``python3 -m pytest bench``.
"""

import importlib.util
import pathlib

from sloccrank import slocc

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_benchmark_tracer_installs_on_this_program():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    try:
        t.install()
        records = slocc.run_theorem1_trials(1, seed=1)
    finally:
        t.uninstall()
    assert records[0]["result"] == "pass"
    assert t.counts["slocc.verify_theorem1"]["calls"] == 1
    assert t.counts["linalg.rank_exact"]["calls"] > 0
