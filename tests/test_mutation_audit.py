"""The mutation audit's list stays current: each mutant's text occurs exactly
once in its module, so an edit of src/ that moves a mutant's text fails here,
without the minutes a run of the audit takes."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "mutation_audit.py"


def _audit():
    spec = importlib.util.spec_from_file_location("mutation_audit", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_text_occurs_once_in_its_module():
    audit = _audit()
    assert len(audit.MUTANTS) == 29
    assert audit.stale_mutants() == []


def test_a_moved_text_is_reported_stale(monkeypatch):
    audit = _audit()
    name, module, text, replacement = audit.MUTANTS[0]
    monkeypatch.setattr(audit, "MUTANTS", [(name, module, text + "#", replacement)])
    assert audit.stale_mutants() == [name]
