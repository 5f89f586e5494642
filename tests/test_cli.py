"""End-to-end checks of the command-line surface."""

import json

import pytest

from sloccrank.cli import main
from sloccrank.states import load_state


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


@pytest.mark.parametrize("sigma", ["(１,３)", "(1_0,3)", "(1,3)()"])
def test_rank_rejects_a_malformed_sigma(tmp_path, capsys, sigma):
    path = tmp_path / "ghz.json"
    run(capsys, "gen", "--kind", "ghz", "--n", "4", "--out", str(path))
    code, out, err = run(capsys, "rank", "--state", str(path), "--l", "2",
                         "--sigma", sigma)
    assert code == 2 and out == ""
    assert f"error: cannot parse permutation {sigma!r}" in err


@pytest.mark.parametrize("dims", ["２,2,1_0", "2,2,1_0", "2,٣", "2,2.0"])
def test_capacity_rejects_integers_outside_the_ascii_grammar(capsys, dims):
    code, out, err = run(capsys, "capacity", "--dims", dims)
    assert code == 2 and out == ""
    assert "error: malformed integer" in err


@pytest.mark.parametrize("verb", ["signature", "rank", "matrix"])
@pytest.mark.parametrize("l", ["２", "1_0", "2.0"])
def test_split_rejects_integers_outside_the_ascii_grammar(tmp_path, capsys, verb, l):
    path = tmp_path / "ghz.json"
    run(capsys, "gen", "--kind", "ghz", "--n", "4", "--out", str(path))
    code, out, err = run(capsys, verb, "--state", str(path), "--l", l)
    assert code == 2 and out == ""
    assert f"error: malformed integer {l!r}" in err


@pytest.mark.parametrize("argv", [
    ["gen", "--kind", "ghz", "--n", "３"],
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
