"""The benchmark's workloads still fit the program.

``bench/workloads.py`` builds its inputs and checks its outputs through the
program's public functions and the attributes of its states and scalars; a
change to either would otherwise surface only in the minutes-long
``python3 -m pytest bench``. Each workload is built at seed 1 and runs one
round of its items, which its own checks must pass.
"""

import importlib.util
import pathlib

import pytest

WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "workloads.py"

_spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_round_of_each_workload_passes_its_checks(name):
    workload = workloads.WORKLOADS[name](1)
    outputs = [workload.run(item) for item in workload.items]
    assert workload.check(outputs) + workload.check_once() == []
