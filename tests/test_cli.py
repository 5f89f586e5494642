"""End-to-end checks of the command-line surface."""

import csv
import hashlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import sloccrank.cli
from sloccrank.classifier import table1_suite
from sloccrank.cli import main
from sloccrank.states import load_state, state_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_writes_loadable_state(tmp_path, capsys):
    path = tmp_path / "ghz.json"
    code, _, _ = run(capsys, "gen", "--kind", "ghz", "--n", "3", "--d", "2",
                     "--out", str(path))
    assert code == 0
    state = load_state(path)
    assert state.dims == (2, 2, 2)
    assert len(state.amplitudes) == 2


def test_gen_to_stdout_is_json(capsys):
    code, out, _ = run(capsys, "gen", "--kind", "w", "--n", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == [2, 2, 2]
    assert len(doc["amplitudes"]) == 3


def test_rank_and_signature_verbs(tmp_path, capsys):
    path = tmp_path / "ghz.json"
    run(capsys, "gen", "--kind", "ghz", "--n", "4", "--d", "3",
        "--out", str(path))

    code, out, _ = run(capsys, "rank", "--state", str(path), "--l", "2",
                       "--sigma", "(1,3)")
    assert code == 0
    assert "rank=3" in out and "method=exact" in out

    code, out, _ = run(capsys, "rank", "--state", str(path), "--l", "2",
                       "--numeric")
    assert code == 0
    assert "rank=3" in out and "method=numeric" in out

    code, out, _ = run(capsys, "signature", "--state", str(path))
    assert code == 0
    assert "l=2" in out
    assert "ranks=3,3,3" in out
    assert "label=F{3,3,3}@{I,(1,3),(1,4)}" in out


@pytest.mark.parametrize("sigma", ["(１,３)", "(1_0,3)", "(1,3)()", "\u3000(1,3)", "(1,3)\xa0"])
def test_rank_rejects_a_malformed_sigma(tmp_path, capsys, sigma):
    path = tmp_path / "ghz.json"
    run(capsys, "gen", "--kind", "ghz", "--n", "4", "--out", str(path))
    code, out, err = run(capsys, "rank", "--state", str(path), "--l", "2",
                         "--sigma", sigma)
    assert code == 2 and out == ""
    assert f"error: cannot parse permutation {sigma!r}" in err


@pytest.mark.parametrize("dims", ["２,2,1_0", "2,2,1_0", "2,٣", "2,2.0", "2,\u30002", "2\xa0,2"])
def test_capacity_rejects_integers_outside_the_ascii_grammar(capsys, dims):
    code, out, err = run(capsys, "capacity", "--dims", dims)
    assert code == 2 and out == ""
    assert "error: malformed integer" in err


@pytest.mark.parametrize("verb", ["signature", "rank", "matrix"])
@pytest.mark.parametrize("l", ["２", "1_0", "2.0", "\u20022", "\x0b2"])
def test_split_rejects_integers_outside_the_ascii_grammar(tmp_path, capsys, verb, l):
    path = tmp_path / "ghz.json"
    run(capsys, "gen", "--kind", "ghz", "--n", "4", "--out", str(path))
    code, out, err = run(capsys, verb, "--state", str(path), "--l", l)
    assert code == 2 and out == ""
    assert f"error: malformed integer {l!r}" in err


@pytest.mark.parametrize("argv", [
    ["gen", "--kind", "ghz", "--n", "３"],
    ["gen", "--kind", "ghz", "--n", "\u30003"],
    ["gen", "--kind", "ghz", "--n", "3\xa0"],
    ["gen", "--kind", "ghz", "--n", "3", "--d", "1_0"],
    ["verify", "theorem1", "--trials", "２", "--seed", "1"],
    ["verify", "theorem1", "--trials", "2", "--seed", "1_0"],
    ["scan", "--levels", "３", "--n", "4"],
])
def test_integer_options_reject_integers_outside_the_ascii_grammar(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("option", [["--trials", "２"], ["--seed", "1_0"]])
def test_theorem_checks_script_reads_integers_with_the_cli_grammar(
    monkeypatch, capsys, option
):
    # the script passes --trials and --seed through as text, so the CLI
    # rejects them before any trial runs
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_theorem_checks.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--trials", "1", *option])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "sloccrank verify: error:" in captured.err


def test_integers_and_sigma_allow_surrounding_ascii_whitespace(tmp_path, capsys):
    code, out, _ = run(capsys, "capacity", "--dims", " 2,\t2 ,2\n")
    assert code == 0 and out.splitlines()[-1] == "optimal_l=1"
    path = tmp_path / "ghz.json"
    run(capsys, "gen", "--kind", "ghz", "--n", " 4\t", "--out", str(path))
    code, out, _ = run(capsys, "rank", "--state", str(path), "--l", "2 ",
                       "--sigma", " (1,3)\r\n")
    assert code == 0 and out == "rank=2 method=exact l=2 sigma=(1,3)\n"


def test_matrix_dump_format(tmp_path, capsys):
    path = tmp_path / "ghz.json"
    run(capsys, "gen", "--kind", "ghz", "--n", "3", "--d", "2",
        "--out", str(path))
    code, out, _ = run(capsys, "matrix", "--state", str(path), "--l", "1",
                       "--sigma", "I")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# rows=2 cols=4 split=1 sigma=I"
    assert lines[1] == "1+0i,0+0i,0+0i,0+0i"
    assert lines[2] == "0+0i,0+0i,0+0i,1+0i"


def test_capacity_verb(capsys):
    code, out, _ = run(capsys, "capacity", "--dims", "2,2,2,4")
    assert code == 0
    assert out.splitlines() == ["P(1)=4", "P(2)=64", "P(3)=4", "optimal_l=2"]


def test_capacity_rejects_bad_dims(capsys):
    code, _, err = run(capsys, "capacity", "--dims", "2,1,2")
    assert code == 2
    assert "error:" in err


def test_verify_rejects_non_integer_dims(capsys):
    code, _, err = run(capsys, "verify", "theorem1", "--dims", "2,x",
                       "--seed", "1")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_fewer_than_one_trial(capsys, trials):
    code, out, err = run(capsys, "verify", "theorem1", "--trials", trials,
                         "--seed", "1")
    assert code == 2
    assert "error:" in err
    assert out == ""


def test_table1_verb(capsys):
    code, out, _ = run(capsys, "table1")
    assert code == 0
    assert "families=22 expected=22 failures=0" in out
    assert out.count(" ok") == 24


def test_table1_verb_counts_a_wrong_label_and_exits_1(monkeypatch, capsys):
    suite = table1_suite()
    name, state, _ = suite[0]
    suite[0] = (name, state, "F{0,0,0}@{I,(1,3),(1,4)}")
    monkeypatch.setattr(sloccrank.cli, "table1_suite", lambda: suite)
    code, out, _ = run(capsys, "table1")
    assert code == 1
    assert "families=22 expected=22 failures=1" in out
    assert out.count(" FAIL") == 1 and out.count(" ok") == 23


def test_classify_verb(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "gen", "--kind", "ghz", "--n", "4", "--d", "2", "--out", str(a))
    run(capsys, "gen", "--kind", "w", "--n", "4", "--out", str(b))
    out_path = tmp_path / "classes.csv"
    code, _, _ = run(capsys, "classify", "--states", str(a), str(b),
                     "--l", "2", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert "F{2,2,2}@{I,(1,3),(1,4)}" in text
    assert str(a) in text and str(b) in text


def test_classify_csv_of_the_reference_table_is_pinned(tmp_path, monkeypatch, capsys):
    # the 24 representatives saved as <name>.json, classified at l = 2
    monkeypatch.chdir(tmp_path)
    paths = []
    for name, state, _ in table1_suite():
        Path(f"{name}.json").write_text(json.dumps(state_to_json(state), indent=1))
        paths.append(f"{name}.json")
    code, out, _ = run(capsys, "classify", "--l", "2", "--states", *paths)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "17067da4dd9466ab4f905f5268da1624e439dec525027f809cb148944f69795e"
    )


@pytest.mark.parametrize("argv, digest", [
    (("--kind", "w", "--n", "5"),
     "2a115ea072243c0fbc5bc9a899f7460f03af2b8e782a6ab89cbc46fbc33acc53"),
    (("--kind", "dicke3", "--n", "6", "--l1", "2", "--l2", "1"),
     "133d93aa2eb6d37f25bb046208ff740e85871ab11f9da5538e611f557fa61b36"),
    (("--kind", "dicke4", "--n", "6", "--l1", "1", "--l2", "2", "--l3", "1"),
     "ad2a5cf0cad46c4ee328429779a9d3a6810beea551fa0138340fdeb1c59b901e"),
])
def test_gen_output_of_w_and_dicke_states_is_pinned(capsys, argv, digest):
    # the bytes pin the generators' amplitude order, not just the set of terms
    code, out, _ = run(capsys, "gen", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_classify_csv_quotes_ids_with_commas_and_quotes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    ids = ["a,b.json", 'say "hi".json']
    run(capsys, "gen", "--kind", "ghz", "--n", "4", "--d", "2", "--out", ids[0])
    run(capsys, "gen", "--kind", "w", "--n", "4", "--out", ids[1])
    code, out, _ = run(capsys, "classify", "--states", *ids, "--l", "2")
    assert code == 0
    rows = list(csv.reader(out.splitlines()[1:]))  # after the comment line
    assert rows[0] == ["state_id", "l", "sigma_list", "ranks", "family_label"]
    assert all(len(row) == 5 for row in rows)
    assert sorted(row[0] for row in rows[1:]) == sorted(ids)


def test_verify_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "theorem1", "--trials", "2"])
    assert exc.value.code == 2


def test_verify_theorem1_records(tmp_path, capsys):
    out_path = tmp_path / "t1.jsonl"
    code, _, err = run(capsys, "verify", "theorem1", "--trials", "3",
                       "--seed", "7", "--out", str(out_path))
    assert code == 0
    assert "pass=3" in err
    records = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert len(records) == 3
    assert all(r["result"] == "pass" for r in records)


def test_verify_is_byte_identical_across_runs(tmp_path, capsys):
    paths = [tmp_path / "run1.jsonl", tmp_path / "run2.jsonl"]
    for p in paths:
        code, _, _ = run(capsys, "verify", "monotone", "--trials", "5",
                         "--seed", "99", "--out", str(p))
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_scan_verb(tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    code, _, _ = run(capsys, "scan", "--levels", "3", "--n", "4",
                     "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[2].startswith("l0,l1,l2,variance")
    assert len(lines) == 3 + 10  # occupation tuples with l1+l2 <= 3


def test_missing_state_file_exits_2(capsys):
    code, _, err = run(capsys, "rank", "--state", "/nonexistent.json")
    assert code == 2
    assert "error:" in err


def test_malformed_state_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"dims": [2, 2], "amplitudes": [], "x": 1}')
    code, _, err = run(capsys, "signature", "--state", str(path))
    assert code == 2
    assert "unknown fields" in err


def test_state_file_with_a_repeated_key_exits_2(tmp_path, capsys):
    path = tmp_path / "twice.json"
    path.write_text('{"dims":[2,2],"dims":[3,3],'
                    '"amplitudes":[{"index":[2,2],"re":"1","re":"7"}]}')
    code, out, err = run(capsys, "matrix", "--state", str(path), "--l", "1")
    assert code == 2 and out == ""
    assert "repeated key" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"dims":[2,2],"dims":[2,2],"amplitudes":[]}', "repeated key 'dims'"),
        ('{"dims":[2,2],"amplitudes":[{"index":[0,0],"re":"1"}],"x":1}',
         "unknown fields: ['x']"),
        ('{"dims":[2,2],"amplitudes":[]}', "state has no nonzero amplitude"),
    ],
    ids=["repeated-key", "unknown-field", "zero-state"],
)
def test_a_bad_state_file_is_named_in_its_error(tmp_path, capsys, text, message):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text('{"dims":[2,2],"amplitudes":[{"index":[0,0],"re":"1"}]}')
    bad.write_text(text)
    code, out, err = run(capsys, "classify", "--states", str(good), str(bad), "--l", "1")
    assert code == 2 and out == ""
    assert err == f"error: {bad}: {message}\n"


@pytest.mark.parametrize(
    "data, message",
    [
        (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
        (b"\xff\xfe" + '{"dims":[2],"amplitudes":[]}'.encode("utf-16-le"),
         "'utf-8' codec can't decode"),
        (b'{"dims":[2],"amplitudes":[{"index":[0],"re":' + b"1" * 5000 + b"}]}",
         "Exceeds the limit (4300 digits)"),
    ],
    ids=["deep-nesting", "utf-16-bom", "5000-digit-int"],
)
def test_an_unparseable_state_file_exits_2_and_is_named(tmp_path, capsys, data, message):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    code, out, err = run(capsys, "signature", "--state", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: invalid JSON: ") and message in err


def test_a_state_file_is_read_as_utf8_under_an_ascii_locale(tmp_path):
    # JSON text is UTF-8 whatever the locale: the fullwidth digit decodes,
    # and the error is the schema's, with the path
    path = tmp_path / "wide.json"
    path.write_bytes('{"dims":[2,2],"amplitudes":[{"index":[0,0],"re":"１"}]}'.encode())
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "sloccrank.cli", "signature", "--state", str(path)],
        env=env, capture_output=True, text=True, encoding="utf-8", check=False,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    # the ASCII stderr writes the digit as a backslash escape
    assert proc.stderr == f"error: {path}: amplitude #0: malformed rational '\\uff11'\n"


def test_directory_paths_exit_2(tmp_path, capsys):
    # a directory as --state or --out is an input error, not a traceback
    code, _, err = run(capsys, "rank", "--state", str(tmp_path))
    assert code == 2
    assert err.startswith("error:")
    code, out, err = run(capsys, "gen", "--kind", "ghz", "--n", "3", "--out", str(tmp_path))
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


def test_rank_numeric_on_huge_amplitude_exits_2(tmp_path, capsys):
    # 10**400 has no float, so the SVD cross-check cannot run on it
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "dims": [2, 2],
        "amplitudes": [
            {"index": [0, 0], "re": "1" + "0" * 400, "im": "0"},
            {"index": [1, 1], "re": "1", "im": "0"},
        ],
    }))
    code, out, err = run(capsys, "rank", "--state", str(path), "--l", "1",
                         "--numeric")
    assert code == 2
    assert err.startswith("error:") and "too large" in err
    assert out == ""
    code, out, _ = run(capsys, "rank", "--state", str(path), "--l", "1")
    assert code == 0
    assert "rank=2" in out


def test_classify_out_holds_the_bytes_stdout_prints_under_an_ascii_locale(tmp_path):
    # under an ASCII locale a non-ASCII path reaches argv as surrogate
    # escapes; --out must write them back as the same bytes stdout prints
    assert main(["gen", "--kind", "ghz", "--n", "3", "--out", str(tmp_path / "\u00e9.json")]) == 0
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    outs = []
    for extra in ([], ["--out", "x.csv"]):
        proc = subprocess.run(
            [sys.executable, "-m", "sloccrank.cli", "classify",
             "--states", "\u00e9.json", "--l", "1", *extra],
            cwd=tmp_path, env=env, capture_output=True, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert "\u00e9.json".encode() in outs[0]
    assert outs[1] == b"" and (tmp_path / "x.csv").read_bytes() == outs[0]
