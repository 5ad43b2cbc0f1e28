import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from okbody.cli import main
from okbody.convex import polytope_to_json, scaled_simplex
from okbody.varieties import (CASE_NAMES, case_study_to_json, make_case,
                              make_negative_control)


def run(argv):
    return main([str(a) for a in argv])


def test_compute_success_and_files(tmp_path, capsys):
    code = run(["compute", "--case", "p2", "--max-level", "2",
                "--out", tmp_path])
    assert code == 0
    out = capsys.readouterr().out
    assert "equals expected simplex" in out
    assert (tmp_path / "p2_c1_M2_complete_body.json").read_text() == \
        polytope_to_json(scaled_simplex(2, 1, 1))
    semigroup = json.loads(
        (tmp_path / "p2_c1_M2_complete_semigroup.json").read_text())
    assert semigroup["levels"]["1"] == [[0, 0], [0, 1], [1, 0]]


def test_compute_deterministic_output(tmp_path):
    for sub in ("a", "b"):
        assert run(["compute", "--case", "quadric_surface", "--max-level", "2",
                    "--out", tmp_path / sub]) == 0
    name = "quadric_surface_c1_M2_complete_semigroup.json"
    assert (tmp_path / "a" / name).read_bytes() == \
        (tmp_path / "b" / name).read_bytes()
    name = "quadric_surface_c1_M2_complete_body.json"
    assert (tmp_path / "a" / name).read_bytes() == \
        (tmp_path / "b" / name).read_bytes()


def test_usage_error_bad_c(capsys):
    assert run(["compute", "--case", "p2", "--c", "0"]) == 1
    assert "positive" in capsys.readouterr().err


def test_c_must_match_the_fixture(tmp_path, capsys):
    fixture = tmp_path / "quadric_c2.json"
    fixture.write_text(case_study_to_json(make_case("quadric_surface", 2)))
    assert run(["verify-flag", "--fixture", fixture, "--c", "1"]) == 1
    assert "carries c = 2" in capsys.readouterr().err
    assert run(["verify-flag", "--fixture", fixture, "--c", "3"]) == 1
    assert run(["verify-flag", "--fixture", fixture, "--c", "2"]) == 0
    assert run(["verify-flag", "--fixture", fixture]) == 0


def test_demo_usage_error_bad_c(capsys):
    assert run(["demo", "--c", "0"]) == 1
    assert "positive" in capsys.readouterr().err


def test_usage_error_unknown_flag():
    with pytest.raises(SystemExit) as excinfo:
        run(["compute", "--bogus"])
    assert excinfo.value.code == 1


def test_usage_error_unknown_case():
    with pytest.raises(SystemExit) as excinfo:
        run(["compute", "--case", "p17"])
    assert excinfo.value.code == 1


@pytest.mark.parametrize("kind", ["complete", "both"])
@pytest.mark.parametrize("command",
                         ["compute", "certify", "export-toric", "demo"])
def test_kind_is_a_usage_error(capsys, command, kind):
    # every command runs the complete system, so no command takes --kind
    with pytest.raises(SystemExit) as excinfo:
        run([command, "--kind", kind])
    assert excinfo.value.code == 1
    err = capsys.readouterr().err
    assert "unrecognized arguments: --kind" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, cases", [
    ("compute", ["p2"]), ("certify", ["p2"]), ("export-toric", ["p2"]),
    ("demo", list(CASE_NAMES))])
def test_each_command_computes_one_semigroup(monkeypatch, tmp_path, command,
                                             cases):
    # one semigroup per case; without --case or --fixture a command runs p2
    from okbody import cli as cli_module
    calls = []
    semigroup = cli_module.semigroup

    def counting(case, kind, max_level):
        calls.append((case.name, kind, max_level))
        return semigroup(case, kind, max_level)
    monkeypatch.setattr(cli_module, "semigroup", counting)
    argv = [command, "--max-level", "2"]
    if command in ("compute", "export-toric"):
        argv += ["--out", tmp_path]
    assert run(argv) == 0
    assert calls == [(name, "complete", 2) for name in cases]


def test_certify_quadric(capsys):
    code = run(["certify", "--case", "quadric_surface", "--max-level", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("CERTIFIED finitely generated (vertex criterion)") == 1
    assert "generation degree k = 1" in out


def test_certify_says_what_it_proved(capsys):
    # past the old precision cap the cubic's degree is proved at every
    # level from levels 1..3; at M = 2 the rule is not reached, so the
    # degree is a witness on the levels computed
    assert run(["certify", "--case", "fermat_cubic",
                "--max-level", "300"]) == 0
    assert ("generation degree k = 1, proved at every level (checked to "
            "level 3)") in capsys.readouterr().out
    assert run(["certify", "--case", "fermat_cubic", "--max-level", "2"]) == 0
    assert ("generation degree k = 1, witness on levels 1..2"
            in capsys.readouterr().out)


def test_certify_refuses_failing_fixture(tmp_path, capsys):
    fixture = tmp_path / "control.json"
    fixture.write_text(case_study_to_json(make_negative_control()))
    code = run(["certify", "--fixture", fixture, "--max-level", "2"])
    assert code == 2
    err = capsys.readouterr()
    assert "FAIL" in err.out
    assert "refusing" in err.err


def test_verify_flag_pass_and_fail(tmp_path, capsys):
    assert run(["verify-flag", "--case", "fermat_cubic"]) == 0
    assert "all checks passed" in capsys.readouterr().out
    fixture = tmp_path / "control.json"
    fixture.write_text(case_study_to_json(make_negative_control()))
    assert run(["verify-flag", "--fixture", fixture]) == 2
    assert "verification FAILED" in capsys.readouterr().out


def test_verify_flag_final_form_on_a_member(tmp_path, capsys):
    # the final form is the step form {x = w}: a failed check, not an error
    fixture = tmp_path / "member.json"
    fixture.write_text(_fixture_text(
        lambda data: {**data, "final_form": data["steps"][0]}))
    assert run(["verify-flag", "--fixture", fixture]) == 2
    out = capsys.readouterr().out
    assert "[FAIL] single-point contact: the final form contains a flag " \
        "member" in out
    assert "verification FAILED" in out


def test_verify_flag_unreadable_fixture(tmp_path, capsys):
    fixture = tmp_path / "broken.json"
    fixture.write_text("{not json")
    assert run(["verify-flag", "--fixture", fixture]) == 1


def _fixture_text(edit):
    data = json.loads(case_study_to_json(make_case("quadric_surface")))
    return json.dumps(edit(data))


def _set(value, *path):
    """An edit that sets the entry of data at the path to the value."""
    def edit(data):
        target = data
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
        return data
    return edit


def _on_p2(edit):
    """An edit applied to the p2 fixture in place of the quadric's."""
    return lambda data: edit(json.loads(case_study_to_json(make_case("p2"))))


def _drop(key):
    def edit(data):
        del data[key]
        return data
    return edit


# each malformed fixture, and the part of the message that names its fault
BAD_FIXTURES = {
    "wrong_n": (_set(5, "n"), "carries n = 5"),
    "wrong_d": (_set(3, "d"), "carries d = 3"),
    "c_zero": (_set(0, "c"), "c must be a positive integer"),
    "missing_c": (_drop("c"), "missing key 'c'"),
    # null on P^n, so an absent relation is no projective space
    "relation_missing": (_drop("relation"), "missing key 'relation'"),
    "top_level_list": (lambda data: [data], "a fixture is a JSON object"),
    "steps_not_a_list": (_set(5, "steps"), "'steps' must be a list"),
    "zero_denominator": (_set("1/0", "final_form", 0, 0),
                         "zero denominator in 'final_form'"),
    "point_zero_denominator": (_set("1/0", "point", 1),
                               "zero denominator in 'point'"),
    # the chart and the parameter are read off the flag, like n and d
    "chart_var_outside": (_set(9, "chart_var"),
                          "the fixture carries chart_var = 9, but its flag "
                          "gives chart_var = 1"),
    # no value is coerced: integers stay integers, and no float is read
    "c_float": (_set(1.7, "c"), "malformed 'c'"),
    "c_bool": (_set(True, "c"), "malformed 'c'"),
    "chart_var_float": (_set(1.9, "chart_var"), "malformed 'chart_var'"),
    "parameter_var_string": (_set("3", "parameter_var"),
                             "malformed 'parameter_var'"),
    "ambient_vars_string": (_set("4", "ambient_vars"),
                            "malformed 'ambient_vars'"),
    # P^1 has the fewest ambient variables, 2
    "ambient_vars_one": (_set(1, "ambient_vars"), "malformed 'ambient_vars'"),
    "ambient_vars_zero": (_set(0, "ambient_vars"), "malformed 'ambient_vars'"),
    "ambient_vars_negative": (_set(-3, "ambient_vars"),
                              "malformed 'ambient_vars'"),
    "ambient_vars_one_on_p2": (_on_p2(_set(1, "ambient_vars")),
                               "malformed 'ambient_vars'"),
    # an empty term list is no form, homogeneous or not
    "relation_empty": (_set([], "relation"),
                       "malformed 'relation': no terms"),
    "step_empty": (_set([], "steps", 0), "malformed 'steps': no terms"),
    "final_form_empty": (_set([], "final_form"),
                         "malformed 'final_form': no terms"),
    "exponent_string": (_set("1001", "final_form", 0, 1),
                        "malformed 'final_form'"),
    "exponent_float": (_set([1.0, 0, 0, 0], "final_form", 0, 1),
                       "malformed 'final_form'"),
    "coefficient_float": (_set(0.1, "final_form", 0, 0),
                          "malformed 'final_form'"),
    "point_float": (_set(0.1, "point", 1), "malformed 'point'"),
    # a string is read only as an integer or a fraction such as "-3/4"
    "point_decimal": (_set("1.0", "point", 1), "malformed 'point'"),
    "point_spaces": (_set(" 1 ", "point", 1), "malformed 'point'"),
    "coefficient_exponent": (_set("1e0", "final_form", 0, 0),
                             "malformed 'final_form'"),
    "name_not_a_string": (_set(5, "name"), "malformed 'name'"),
    # the name begins the output file names, so it is a plain file-name stem
    "name_parent_dir": (_set("../x", "name"), "malformed 'name'"),
    "name_with_slash": (_set("a/b", "name"), "malformed 'name'"),
    "n_float": (_set(2.0, "n"), "malformed 'n'"),
    # the flag's own checks name the key they read: forms are linear and
    # nonzero, and the point lies on every form and on the hypersurface
    "step_quadratic": (_set([["1/1", [2, 0, 0, 0]]], "steps", 0),
                       "malformed 'steps': flag forms must be nonzero "
                       "ambient linear forms"),
    "step_cancelling": (_set([[1, [1, 0, 0, 0]], [-1, [1, 0, 0, 0]]],
                             "steps", 0),
                        "malformed 'steps': flag forms must be nonzero"),
    "relation_cancelling": (_set([["1/1", [2, 0, 0, 0]],
                                  ["-1/1", [2, 0, 0, 0]]], "relation"),
                            "malformed 'relation': relation must be a "
                            "nonzero ambient form"),
    "final_form_quadratic": (_set([["1/1", [0, 0, 2, 0]]], "final_form"),
                             "malformed 'final_form': flag forms must be "
                             "nonzero ambient linear forms"),
    "point_off_flag": (_set(["1/1", "0/1", "0/1", "0/1"], "point"),
                       "malformed 'point': the flag point must lie on "
                       "every flag form"),
    "point_off_hypersurface": (_set(["1/1", "1/1", "0/1", "1/1"], "point"),
                               "malformed 'point': the flag point must lie "
                               "on the hypersurface"),
    "point_short": (_set([0, 1, 0], "point"),
                    "malformed 'point': point must be a nonzero ambient "
                    "point"),
    "point_zero": (_set([0, 0, 0, 0], "point"),
                   "malformed 'point': point must be a nonzero ambient "
                   "point"),
    # the repeated step restricts to zero on the member it cuts out
    "steps_repeated": (lambda data: {**data, "steps": data["steps"] * 2},
                       "flag step 2 vanishes on the flag member before it"),
}


@pytest.mark.parametrize("command", ["verify-flag", "compute", "certify"])
@pytest.mark.parametrize("fixture", sorted(BAD_FIXTURES))
def test_bad_fixture_is_a_usage_error(tmp_path, capsys, command, fixture):
    edit, fault = BAD_FIXTURES[fixture]
    path = tmp_path / f"{fixture}.json"
    path.write_text(_fixture_text(edit))
    argv = [command, "--fixture", path]
    if command == "compute":
        argv += ["--out", tmp_path]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "cannot load fixture" in err
    assert fault in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["compute", "export-toric"])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, command):
    out = tmp_path / "a_file"
    out.write_text("")
    assert run([command, "--case", "p2", "--max-level", "1",
                "--out", out]) == 1
    err = capsys.readouterr().err
    assert f"cannot write {out}" in err
    assert "Traceback" not in err


def test_ec_single_point_is_an_unknown_command():
    # the elliptic sweep is no command: the okbody process refuses it with
    # a usage message and exit code 1, and prints no traceback
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "okbody.cli", "ec-single-point", "--p", "101"],
        env=env, capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stderr.startswith("usage: okbody ")
    assert "invalid choice: 'ec-single-point'" in done.stderr
    assert "Traceback" not in done.stderr


def test_export_toric_p2(tmp_path, capsys):
    code = run(["export-toric", "--case", "p2", "--max-level", "2",
                "--out", tmp_path])
    assert code == 0
    data = json.loads((tmp_path / "p2_c1_M2_complete_fan.json").read_text())
    assert data["rays"] == [[-1, -1], [0, 1], [1, 0]]


def test_demo(capsys):
    code = run(["demo", "--max-level", "2"])
    assert code == 0
    header, rule, *rows = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in rows] == [
        "p2", "p3", "quadric_surface", "fermat_cubic", "quadric_threefold"]
    # the rule underlines each column; every gap in it is a space in
    # every line, so no two columns run together
    gaps = [m.start() for m in re.finditer(" ", rule)]
    assert len(re.findall("-+", rule)) == 9
    for line in (header, *rows):
        assert all(i >= len(line) or line[i] == " " for i in gaps), line


def test_a_body_other_than_the_simplex_fails(monkeypatch, tmp_path, capsys):
    # compute and demo compare the body with the expected simplex
    from okbody import cli as cli_module
    monkeypatch.setattr(cli_module, "body_estimate", lambda sg: scaled_simplex(
        sg.case.n, sg.case.c, sg.case.d + 1))
    assert run(["compute", "--case", "p2", "--max-level", "2",
                "--out", tmp_path]) == 2
    assert "DIFFERS FROM expected simplex" in capsys.readouterr().out
    assert run(["demo", "--max-level", "2"]) == 2


def test_computational_failure_exit_code(monkeypatch, tmp_path, capsys):
    from okbody import cli as cli_module
    from okbody.series import PrecisionError

    def explode(*args, **kwargs):
        raise PrecisionError("injected failure")

    monkeypatch.setattr(cli_module, "semigroup", explode)
    code = run(["compute", "--case", "p2", "--max-level", "2",
                "--out", tmp_path])
    assert code == 3
    assert "computational failure" in capsys.readouterr().err
