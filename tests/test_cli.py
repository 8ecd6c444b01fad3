import subprocess
import sys
from pathlib import Path

import pytest

import lbk.axioms
from lbk import fixtures
from lbk.axioms import FAIL, PASS, check_a1, check_a2, equivalence_suite
from lbk.cli import main
from lbk.modelfile import parse_model, serialize_model
from test_golden import fm_fallback

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def tripod_model(tmp_path):
    path = tmp_path / "tripod.lbm"
    assert main(["fixture", "tree", "--ends", "3", "--lambda", "1", "-o", str(path)]) == 0
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_fixture_then_validate(tripod_model, capsys):
    code, out = run(capsys, "validate", str(tripod_model))
    assert code == 0
    assert out.strip().endswith("RESULT valid")


def test_fixture_lambda_two(tmp_path, capsys):
    path = tmp_path / "tripod2.lbm"
    assert main(["fixture", "tree", "--ends", "3", "--lambda", "2", "-o", str(path)]) == 0
    assert "lambda 2" in path.read_text()
    code, _ = run(capsys, "validate", str(path))
    assert code == 0


def test_fixture_then_validate_many_charts(tmp_path, capsys):
    path = tmp_path / "t6.lbm"
    assert main(["fixture", "tree", "--ends", "6", "-o", str(path)]) == 0
    code, out = run(capsys, "validate", str(path))
    assert code == 0
    assert out.strip().endswith("RESULT valid")


def test_axioms_subset_exit_zero(tripod_model, capsys):
    code, out = run(capsys, "axioms", str(tripod_model), "--only", "A6,EC,SE")
    assert code == 0
    for name in ("A6", "EC", "SE"):
        assert f"SUMMARY axiom={name}" in out
        assert f"verdict=pass" in out
    assert out.count("SUMMARY") == 3


def test_axioms_full_run_emits_equivalence(tripod_model, capsys):
    code, out = run(capsys, "axioms", str(tripod_model), "--samples", "40")
    assert code == 0
    assert "EQUIVALENCE precondition=ok" in out
    assert "ALARM" not in out


def test_axioms_structural_only(tripod_model, capsys):
    code, out = run(capsys, "axioms", str(tripod_model), "--only", "A1,A2")
    assert code == 0
    assert "SUMMARY axiom=A1" in out and "SUMMARY axiom=A2" in out
    assert "EQUIVALENCE" not in out


def test_axioms_unknown_name_exit_two(tripod_model, capsys):
    assert main(["axioms", str(tripod_model), "--only", "A9"]) == 2


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_axioms_samples_below_one_is_a_usage_error(tripod_model, capsys, samples):
    with pytest.raises(SystemExit) as exc:
        main(["axioms", str(tripod_model), "--samples", samples])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --samples: must be at least 1" in captured.err
    assert "Sample larger than population" not in captured.err


def test_axioms_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.lbm"
    main(["fixture", "broken-pair", "-o", str(path)])
    code, out = run(capsys, "axioms", str(path), "--only", "EC")
    assert code == 1
    assert "verdict=fail" in out


def test_distance_example(tripod_model, capsys):
    code, out = run(capsys, "distance", str(tripod_model), "chart:23 (1)", "chart:23 (-2)")
    assert code == 0
    assert out.strip() == "6"


def test_distance_across_charts(tripod_model, capsys):
    code, out = run(capsys, "distance", str(tripod_model), "chart:12 (-1)", "chart:13 (-2)")
    assert code == 0
    assert out.strip() == "6"


def test_retract_folds_ray(tripod_model, capsys):
    code, out = run(
        capsys,
        "retract",
        str(tripod_model),
        "--chart",
        "12",
        "--germ",
        "chart:12 (0)",
        "chart:23 (-2)",
        "chart:12 (5)",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "chart:12 (-2)"
    assert lines[1] == "chart:12 (5)"


def test_infinity_counts(tripod_model, capsys):
    code, out = run(capsys, "infinity", str(tripod_model))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "chambers 3"
    assert lines[1] == "apartments 3"


def test_gallery(tripod_model, capsys):
    code, out = run(capsys, "gallery", str(tripod_model), "chart:12 (0)", "chart:12 (0) ; 1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "types 1"
    assert lines[2] == "length 1"


def test_gallery_across_charts(tripod_model, capsys):
    # The germs sit in charts 12 and 23; only chart 13 holds both.
    code, out = run(capsys, "gallery", str(tripod_model), "chart:12 (0)", "chart:23 (0) ; 1")
    assert code == 0
    assert out.splitlines() == ["types 1", "delta r1", "length 1"]


def test_retract_germ_outside_target_chart(tripod_model, capsys):
    code, out = run(capsys, "retract", str(tripod_model), "--chart", "23", "--germ", "chart:12 (1)", "chart:12 (0)")
    assert code == 1
    assert out == "fail: germ 12:(1):e is not contained in chart 23\n"


def test_gallery_germs_in_no_common_chart(tmp_path, capsys):
    path = tmp_path / "bp.lbm"
    assert main(["fixture", "broken-pair", "-o", str(path)]) == 0
    code, out = run(capsys, "gallery", str(path), "chart:1 (-1)", "chart:2 (-1)")
    assert code == 1
    assert out == "fail: germs share no chart\n"


def test_gallery_germs_at_distinct_bases_exit_two(tripod_model, capsys):
    assert main(["gallery", str(tripod_model), "chart:12 (1)", "chart:12 (2)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: germ distance needs germs at a common base point\n"


@pytest.mark.parametrize("verb", [["fixture", "tree"], ["axioms", "MODEL", "--only", "A1"]])
def test_unwritable_output_exit_two(tripod_model, tmp_path, capsys, verb):
    target = tmp_path / "missing" / "dir" / "out.txt"
    argv = [str(tripod_model) if arg == "MODEL" else arg for arg in verb]
    assert main([*argv, "-o", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert not target.exists()


def _drop_last(atlas):
    return fixtures.drop_chart(atlas, atlas.name(atlas.size - 1))


AGREEMENT_MODELS = {
    "tree(3,1)": (lambda: fixtures.lambda_tree(3, 1), None),
    "fan(3,B2)": (lambda: fixtures.fan(3, "B2", 1), None),
    "broken_pair": (fixtures.broken_pair, None),
    "shifted_rays": (fixtures.shifted_rays, None),
    "tree(3,1)-23": (lambda: _drop_last(fixtures.lambda_tree(3, 1)), None),
    "fm_fallback": (fm_fallback, None),  # validate fails, so the gate is unmet
    "tree(7,1)-67": (lambda: fixtures.drop_chart(fixtures.lambda_tree(7, 1), "67"), 80),
    "tree(8,1)-78": (lambda: fixtures.drop_chart(fixtures.lambda_tree(8, 1), "78"), 80),
}


@pytest.mark.parametrize("name", list(AGREEMENT_MODELS))
def test_axioms_cli_agrees_with_library(name, tmp_path, capsys):
    make, samples = AGREEMENT_MODELS[name]
    text = serialize_model(make())
    path = tmp_path / "model.lbm"
    path.write_text(text)
    argv = ["axioms", str(path)] + (["--samples", str(samples)] if samples else [])
    main(argv)
    atlas = parse_model(text)
    suite = equivalence_suite(atlas, samples or 200, 0)
    expected = check_a1(atlas).rendered() + check_a2(atlas).rendered() + suite.rendered()
    assert capsys.readouterr().out == "\n".join(expected) + "\n"
    if name in ("tree(7,1)-67", "tree(8,1)-78"):  # the sampled A4 passes, and exact A4 shuts the gate
        assert not suite.alarms and not suite.precondition_ok
        assert [line.verdict for line in suite.reports["A4"].lines].count(FAIL) == 1
        assert suite.reports["A4"].lines[-1].detail == "detail=no-chart-holds-both-subsectors"
    if name == "tree(7,1)-67":  # its sampled A3 passes too: the gate opened and raised a false ALARM
        assert suite.reports["A3"].verdict == PASS


ALARM_CASES = {
    "EC": [
        "EQUIVALENCE precondition=ok A6=pass,EC=fail,SE=pass,A5=pass",
        "ALARM exchange-equivalence-broken A6=pass EC=fail SE=pass",
    ],
    "A5": [
        "EQUIVALENCE precondition=ok A6=pass,EC=pass,SE=pass,A5=fail",
        "ALARM retraction-missing-despite-exchange SE=pass A5=fail",
    ],
    "SE,A5": [
        "EQUIVALENCE precondition=ok A6=pass,EC=pass,SE=fail,A5=fail",
        "ALARM exchange-equivalence-broken A6=pass EC=pass SE=fail",
    ],
    "A6,A5": [
        "EQUIVALENCE precondition=ok A6=fail,EC=pass,SE=pass,A5=fail",
        "ALARM exchange-equivalence-broken A6=fail EC=pass SE=pass",
        "ALARM retraction-missing-despite-exchange SE=pass A5=fail",
    ],
}


@pytest.mark.parametrize("failing", list(ALARM_CASES))
def test_alarm_rules_in_library_and_cli(failing, tripod_model, capsys, monkeypatch):
    """No fixture passes the A1-A4 gate and then fails an exchange
    condition, so canned failing reports on tree(3,1) drive each ALARM rule."""
    for name in failing.split(","):
        canned = lbk.axioms.AxiomReport(name, [lbk.axioms.CheckLine("canned", FAIL, "detail=canned")])
        monkeypatch.setitem(lbk.axioms._CHECKERS, name, lambda sample, samples, canned=canned: canned)
    expected = ALARM_CASES[failing]
    suite = equivalence_suite(fixtures.lambda_tree(3, 1), samples=20)
    assert suite.rendered()[-len(expected) :] == expected
    code, out = run(capsys, "axioms", str(tripod_model), "--samples", "20")
    assert code == 1
    assert out.splitlines()[-len(expected) :] == expected


@pytest.mark.parametrize("only", ["A6,EC,SE", "A5,SE,EC,A6"])
def test_axioms_subset_in_shared_order(tripod_model, capsys, only):
    code, out = run(capsys, "axioms", str(tripod_model), "--only", only)
    assert code == 0
    summaries = [line.split()[1] for line in out.splitlines() if line.startswith("SUMMARY")]
    order = [n for n in lbk.axioms.AXIOM_ORDER if n in only.split(",")]
    assert summaries == [f"axiom={n}" for n in order]


def test_full_axioms_run_validates_once(tripod_model, capsys, monkeypatch):
    calls = []
    original = lbk.axioms.validate
    monkeypatch.setattr(lbk.axioms, "validate", lambda atlas: calls.append(1) or original(atlas))
    assert main(["axioms", str(tripod_model), "--samples", "20"]) == 0
    assert len(calls) == 1


def test_malformed_model_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.lbm"
    path.write_text("lambda 1\nroots A1\ncharts 2\nglue 1 2 : zz a1 0 ; word ; t (0)\n")
    code = main(["validate", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 4" in err


def test_missing_file_exit_two(capsys):
    assert main(["validate", "/nonexistent/path.lbm"]) == 2


def test_deterministic_reports(tripod_model, capsys):
    _, first = run(capsys, "axioms", str(tripod_model), "--samples", "30", "--seed", "7")
    _, second = run(capsys, "axioms", str(tripod_model), "--samples", "30", "--seed", "7")
    assert first == second


def test_fixture_determinism_bytes(tmp_path):
    a = tmp_path / "a.lbm"
    b = tmp_path / "b.lbm"
    main(["fixture", "fan", "--leaves", "3", "--roots", "A2", "-o", str(a)])
    main(["fixture", "fan", "--leaves", "3", "--roots", "A2", "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_module_entrypoint_runs():
    result = subprocess.run(
        [sys.executable, "-m", "lbk", "fixture", "tree", "--ends", "2"],
        capture_output=True,
        text=True,
        cwd=str(ROOT),
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0
    assert "roots A1" in result.stdout


def run_module(*argv):
    return subprocess.run(
        [sys.executable, "-m", "lbk", *argv],
        capture_output=True,
        text=True,
        cwd=str(ROOT),
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )


@pytest.fixture()
def incompatible_model(tmp_path):
    """``fm_fallback`` as a model file: its shared charts disagree on some distances."""
    path = tmp_path / "fm_fallback.lbm"
    path.write_text(serialize_model(fm_fallback()))
    return path


def test_axioms_on_disagreeing_charts_reports_a5_failure(incompatible_model):
    result = run_module("axioms", str(incompatible_model))
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert "AXIOM A5 " in result.stdout
    assert "verdict=fail detail=distance-disagrees-between-charts" in result.stdout
    assert result.stdout.splitlines()[-1].startswith("EQUIVALENCE precondition=unmet")


def test_distance_on_disagreeing_charts_fails_cleanly(incompatible_model):
    result = run_module("distance", str(incompatible_model), "chart:a (0,0)", "chart:e (-1/4,3/2)")
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stdout.startswith("fail: ") and "disagrees between shared charts" in result.stdout
