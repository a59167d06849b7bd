import hashlib
import json
import os
import pathlib
import subprocess
import sys
from decimal import Decimal

import pytest

from valdetect.cli import main
from valdetect.coeffmod import level_bound

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_levels_pinned(capsys):
    code, out = run_cli(capsys, "levels", "--ell", "3", "--n", "2")
    assert code == 0
    data = json.loads(out)
    assert data["Nprime"] == 483 and data["N"] == 965
    assert data["schema"] == "valdetect/1"
    code, out = run_cli(capsys, "levels", "--ell", "2", "--n", "2")
    data = json.loads(out)
    assert data["Nprime"] == 93 and data["N"] == 185


def test_levels_prints_large_bounds_in_full(capsys):
    # from n = 502 at l = 3 the bound R has more than 4,300 digits, the
    # interpreter's default cap on int-to-str conversion
    cap = sys.get_int_max_str_digits()
    code, out = run_cli(capsys, "levels", "--ell", "3", "--n", "502")
    assert code == 0
    assert json.loads(out, parse_int=Decimal)["R"] == level_bound(3, 502)
    assert sys.get_int_max_str_digits() == cap


def test_cpair_pinned_witness(capsys):
    code, out = run_cli(
        capsys, "cpair", "--field", "ratfunc(gf:7,u)",
        "--window", "{ell=3,n=1,gens=[u,u-3]}",
        "--f", "u", "--g", "u-3", "--height", "4")
    assert code == 0
    data = json.loads(out)
    assert data["result"] == "NotCPair"
    assert data["witness"] == "5*u"


def test_byte_identical_reruns(capsys):
    args = ("cpair", "--field", "ratfunc(gf:7,u)",
            "--window", "{ell=3,n=1,gens=[u,u-3]}",
            "--f", "u", "--g", "u-3", "--height", "2", "--method", "both")
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2


def test_eval_and_witness_replay(capsys):
    code, out = run_cli(
        capsys, "eval", "--field", "ratfunc(gf:7,u)",
        "--window", "{ell=3,n=1,gens=[u,u-3]}",
        "--element", "5*u", "--char", "u")
    assert code == 0
    data = json.loads(out)
    assert data["class"] == [1, 0]
    assert data["value"] == 1


def test_window_report(capsys):
    code, out = run_cli(
        capsys, "window", "--field", "laurent(gf:7,t)",
        "--window", "{ell=3,n=1,gens=[t,const]}")
    data = json.loads(out)
    assert data["orders"] == [3, 3]
    assert data["mu_2ln"] is True


def test_k2_report(capsys):
    code, out = run_cli(
        capsys, "k2", "--field", "laurent(gf:7,t)",
        "--window", "{ell=3,n=1,gens=[t,const]}", "--height", "8")
    data = json.loads(out)
    assert data["order"] == 3 and data["c"] == 0
    assert data["certified_exact"] is True


def test_tame_report(capsys):
    code, out = run_cli(
        capsys, "tame", "--field", "ratfunc(gf:7,u)", "--place", "u",
        "--f", "u", "--g", "u-3", "--ell", "3", "--n", "1")
    data = json.loads(out)
    assert data["tame"]["value"] == "2"
    assert data["tame"]["trivial"] is False


def test_cgroup_and_ccenter(capsys):
    code, out = run_cli(
        capsys, "cgroup", "--field", "laurent(gf:7,t)",
        "--window", "{ell=3,n=1,gens=[t,const]}",
        "--gens", "t;const", "--height", "8")
    assert json.loads(out)["result"] == "CGroup"
    code, out = run_cli(
        capsys, "ccenter", "--field", "laurent(ratfunc(gf:7,u),t)",
        "--window", "{ell=3,n=1,gens=[t,u,u-3]}", "--height", "4")
    data = json.loads(out)
    assert data["center"] == ["t"]
    assert data["is_cgroup"] is False


def test_valuative_and_canonical(capsys):
    code, out = run_cli(
        capsys, "valuative", "--field", "laurent(gf:7,t)",
        "--window", "{ell=3,n=1,gens=[t,const]}",
        "--chars", "t", "--height", "6")
    assert json.loads(out)["result"] == "NoViolationUpTo"
    code, out = run_cli(
        capsys, "canonical-valuation", "--field", "laurent(gf:7,t)",
        "--window", "{ell=3,n=1,gens=[t,const]}",
        "--chars", "t", "--height", "6",
        "--test-elements", "3;t;1+t")
    data = json.loads(out)
    assert data["tested"] == {"3": True, "t": False, "1+t": True}


def test_detect_classify(capsys):
    code, out = run_cli(
        capsys, "detect", "--field", "laurent(laurent(gf:7,s),t)",
        "--window", "{ell=3,n=1,gens=[t,s,const]}",
        "--mode", "classify", "--valuation", "t,s",
        "--level", "1", "--height", "6")
    assert code == 0
    data = json.loads(out)
    assert data["in_W"] is True and data["in_V"] is False


def test_exit_code_hypothesis_failed(capsys):
    # detect inertia on a C-group decomposition: the theorem does not apply
    code, out = run_cli(
        capsys, "detect", "--field", "laurent(gf:7,t)",
        "--window", "{ell=3,n=1,gens=[t,const]}",
        "--mode", "inertia", "--inertia-gens", "t",
        "--level", "1", "--height", "8")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "hypothesis-failed"


def test_exit_code_parse_error(capsys):
    code, out = run_cli(capsys, "eval", "--field", "gf:12",
                        "--window", "{ell=3,n=1,gens=[const]}",
                        "--element", "1")
    assert code == 1
    assert "error" in json.loads(out)


@pytest.mark.parametrize("bad", [
    ("levels", "--ell", "3"),
    ("levels", "--ell", "3", "--n", "2", "--bogus", "1"),
    ("nosuch",),
])
def test_parse_error_leaves_the_next_call_clean(capsys, bad):
    # one parser serves every call in a process, so an argument error in
    # one call must leave nothing behind for the next
    code, out = run_cli(capsys, *bad)
    assert code == 1
    assert json.loads(out)["error"]["code"] == "parse-error"
    code, out = run_cli(capsys, "levels", "--ell", "3", "--n", "2")
    assert code == 0
    data = json.loads(out)
    assert "error" not in data and data["N"] == 965


def test_cl_check_small_window(capsys):
    code, out = run_cli(
        capsys, "cl-check", "--field", "laurent(gf:7,t)",
        "--window", "{ell=3,n=1,gens=[t,const]}", "--height", "8")
    assert code == 0
    data = json.loads(out)
    assert data["disagreements"] == []
    assert data["pairs_checked"] == 45
    assert data["centers_agree"] is True


def test_cl_check_pinned_output(capsys):
    # a window with non-C-pairs and 570 Steinberg witnesses; the digest was
    # taken with the C-pair scan over every table entry and one frame
    # column per witness
    code, out = run_cli(
        capsys, "cl-check", "--field", "ratfunc(gf:7,u)",
        "--window", "{ell=3,n=1,gens=[u,u-3,const]}", "--height", "2")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "71e1f0382909c1a65e1b133df7555aa885c835595aa4c10287282b5b59dc1430"


def test_output_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code = main(["levels", "--ell", "3", "--n", "1",
                 "--output", str(path)])
    assert code == 0
    data = json.loads(path.read_text())
    assert data["N"] == 1


def run_module(*argv):
    """`python -m valdetect.cli argv` in a subprocess that imports the
    package from this checkout's src, whether or not it is installed."""
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, "-m", "valdetect.cli", *argv],
                          capture_output=True, text=True, env=env)


def test_cross_process_determinism():
    argv = ("k2", "--field", "ratfunc(gf:7,u)",
            "--window", "{ell=3,n=1,gens=[u,u-3]}",
            "--height", "2", "--floor")
    runs = [run_module(*argv) for _ in range(2)]
    assert runs[0].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.strip()


def _error_payload(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)["error"]


def test_eval_bad_character_values(capsys):
    code, err = _error_payload(
        capsys, "eval", "--field", "ratfunc(gf:7,u)",
        "--window", "{ell=3,n=1,gens=[u,u-3]}",
        "--element", "5*u", "--char", "1,x")
    assert code == 1
    assert err["code"] == "parse-error"


def test_detect_missing_mode_arguments(capsys):
    code, err = _error_payload(
        capsys, "detect", "--field", "laurent(gf:7,t)",
        "--window", "{ell=3,n=1,gens=[t,const]}",
        "--mode", "cpair", "--level", "1")
    assert code == 1
    assert err["code"] == "parse-error"
    assert "--f" in err["message"] and "--g" in err["message"]


def test_unwritable_output(capsys, tmp_path):
    path = tmp_path / "missing" / "x.json"
    code, err = _error_payload(capsys, "levels", "--ell", "3", "--n", "1",
                               "--output", str(path))
    assert code == 1
    assert err["code"] == "precondition-violated"
    assert not path.exists()


def test_bad_argument_type_is_parse_error(capsys):
    code, err = _error_payload(capsys, "levels", "--ell", "x", "--n", "1")
    assert code == 1
    assert err["code"] == "parse-error"
    assert "--ell" in err["message"]


def test_unknown_subcommand_is_parse_error(capsys):
    code, err = _error_payload(capsys, "frobnicate")
    assert code == 1
    assert err["code"] == "parse-error"
    assert "frobnicate" in err["message"]


def test_removed_jobs_option_is_parse_error(capsys):
    code, err = _error_payload(capsys, "--jobs", "4", "levels", "--ell", "3",
                               "--n", "1")
    assert code == 1
    assert err["code"] == "parse-error"


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["levels", "--help"])
    assert exc.value.code == 0
    assert "--ell" in capsys.readouterr().out


def test_negative_height(capsys):
    code, err = _error_payload(
        capsys, "cpair", "--field", "ratfunc(gf:7,u)",
        "--window", "{ell=3,n=1,gens=[u,u-3]}",
        "--f", "u", "--g", "u-3", "--height", "-1")
    assert code == 1
    assert err["code"] == "precondition-violated"


_WINDOW_ARGS = ("--window", "{ell=3,n=1,gens=[const]}")
_EVAL_ARGS = ("eval", "--field", "ratfunc(gf:7,u)",
              "--window", "{ell=3,n=1,gens=[u]}", "--char", "u")
_LONG = "9" * 5000


@pytest.mark.parametrize("argv,code", [
    (("window", "--field", "laurent(gf:7,t") + _WINDOW_ARGS, "parse-error"),
    (("window", "--field", "laurent(gf:7,") + _WINDOW_ARGS, "parse-error"),
    (("window", "--field", "ratfunc(gf:7,") + _WINDOW_ARGS, "parse-error"),
    (("window", "--field", "ratfunc(gf:7,,)") + _WINDOW_ARGS, "parse-error"),
    (("window", "--field", "laurent(gf:7,t,") + _WINDOW_ARGS, "parse-error"),
    (("window", "--field", "gf:0") + _WINDOW_ARGS, "precondition-violated"),
    (("window", "--field", "gf:1") + _WINDOW_ARGS, "precondition-violated"),
    (("window", "--field", "laurent(gf:7,t,prec=0)") + _WINDOW_ARGS,
     "precondition-violated"),
    (("window", "--field", "gf:7", "--window", "{ell=x,n=1,gens=[const]}"),
     "parse-error"),
    (("window", "--field", "gf:7", "--window", "{ell=3,n=1=2,gens=[const]}"),
     "parse-error"),
    (("levels", "--ell", "4", "--n", "1"), "precondition-violated"),
    (("levels", "--ell", "1", "--n", "1"), "precondition-violated"),
    (("detect", "--field", "laurent(gf:7,t)",
      "--window", "{ell=3,n=1,gens=[t,const]}", "--mode", "cgroup",
      "--level", "1", "--lift-level", "0"), "precondition-violated"),
    # place generators that are zero in F7[u]
    (("window", "--field", "ratfunc(gf:7,u)",
      "--window", "{ell=3,n=1,gens=[0]}"), "precondition-violated"),
    (("window", "--field", "ratfunc(gf:7,u)",
      "--window", "{ell=3,n=1,gens=[7]}"), "precondition-violated"),
    (("window", "--field", "ratfunc(gf:7,u)",
      "--window", "{ell=3,n=1,gens=[u-u]}"), "precondition-violated"),
    (("window", "--field", "laurent(ratfunc(gf:7,u),t)",
      "--window", "{ell=3,n=1,gens=[0]}"), "precondition-violated"),
    # inputs over the size limits, rejected before any work
    (("window", "--field", "gf:99999999989") + _WINDOW_ARGS,
     "precondition-violated"),
    (("window", "--field", "laurent(gf:7,t)",
      "--window", "{ell=3,n=99999999999999999999,gens=[t]}"),
     "precondition-violated"),
    (("levels", "--ell", "3", "--n", "99999999999999999999"),
     "precondition-violated"),
    (_EVAL_ARGS + ("--element", "u^99999999999"), "precondition-violated"),
    (("eval", "--field", "laurent(gf:7,t,prec=99999999999)",
      "--window", "{ell=3,n=1,gens=[t,const]}", "--element", "1/(1-t)",
      "--char", "t"), "precondition-violated"),
    # nested powers count as the product of their exponents
    (_EVAL_ARGS + ("--element", "(u^16)^17"), "precondition-violated"),
    # digit strings past the interpreter's int conversion cap
    (("window", "--field", f"gf:{_LONG}") + _WINDOW_ARGS, "parse-error"),
    (("window", "--field", f"laurent(gf:7,t,prec={_LONG})") + _WINDOW_ARGS,
     "parse-error"),
    (_EVAL_ARGS + ("--element", _LONG), "parse-error"),
    (_EVAL_ARGS + ("--element", f"u^{_LONG}"), "parse-error"),
])
def test_malformed_input_is_an_error_payload(capsys, argv, code):
    exit_code, err = _error_payload(capsys, *argv)
    assert exit_code == 1
    assert err["code"] == code


def test_malformed_spec_leaves_stderr_empty():
    run = run_module("window", "--field", "laurent(gf:7,t", *_WINDOW_ARGS)
    assert run.returncode == 1
    assert run.stderr == ""
    assert json.loads(run.stdout)["error"]["code"] == "parse-error"
