import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hgs
from hgs import cli
from hgs.cli import main
from hgs.groups import EngineError


def test_info_command(capsys):
    assert main(["info", "-G", "S5"]) == 0
    out = capsys.readouterr().out
    assert "order: 120" in out
    assert "almost-simple" in out


def test_info_json(capsys):
    assert main(["info", "-G", "C6", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["order"] == 6
    assert payload["classification"] == "abelian"


def test_count_formula_self(capsys):
    rc = main(["count", "-G", "S5", "-N", "S5", "--method", "formula", "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["items"][0]["value"] == 32


def test_count_formula_self_checks_inner_uniqueness_for_m10(capsys):
    rc = main(["count", "--method", "formula", "-G", "M10", "-N", "M10", "--json"])
    assert rc == 0
    item = json.loads(capsys.readouterr().out)["items"][0]
    assert (item["value"], item["notes"]) == (92, "inner-uniqueness verified")


def test_count_formula_product_json(capsys):
    rc = main(["count", "-G", "S5", "-N", "AxCp(A5,2)", "--method", "formula",
               "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["items"][0]["value"] == 20
    assert payload["schema"] == "hgs-report/1"


def test_count_byott_small(capsys):
    rc = main(["count", "-G", "V4", "-N", "C4", "--method", "byott", "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["items"][0]["value"] == 3


def test_count_brute(capsys):
    rc = main(["count", "-G", "V4", "-N", "C4", "--method", "brute", "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["items"][0]["value"] == 3


def test_count_fpf(capsys):
    rc = main(["count", "-G", "S5", "-N", "AxCp(A5,2)", "--method", "fpf",
               "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["items"][0]["value"] == 20


NO_ALMOST_SIMPLE_G = "formula methods need an almost simple G with prime-index socle\n"
NO_FORMULA = "no closed-form formula applies to this (G, N); use --method byott\n"


def test_count_formula_needs_applicable_shape(capsys):
    rc = main(["count", "-G", "S5", "-N", "C120", "--method", "formula"])
    assert rc == 2
    assert capsys.readouterr() == ("", NO_FORMULA)


@pytest.mark.parametrize("g, n, err", [
    ("C6", "S3", NO_ALMOST_SIMPLE_G),
    ("PGL(2,9)", "S6", NO_FORMULA),  # almost simple N, but neither G nor A6 x C2
])
def test_count_formula_refusals_exit_2(g, n, err, capsys):
    assert main(["count", "-G", g, "-N", n, "--method", "formula"]) == 2
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("g, n, err", [
    ("S5", "C120", "error: fpf route needs N of shape A x C_p for the socle A and "
                   "prime p of G\n"),
    ("C6", "S3", "error: fpf route needs an almost simple G with prime-index "
                 "socle\n"),
])
def test_count_fpf_refusals_exit_1(g, n, err, capsys):
    assert main(["count", "-G", g, "-N", n, "--method", "fpf"]) == 1
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("g, value", [("PGL(2,9)", 72), ("M10", 0)])
def test_count_formula_product_type_at_order_720(g, value, capsys):
    rc = main(["count", "-G", g, "-N", "AxCp(A6,2)", "--method", "formula", "--json"])
    assert rc == 0
    item = json.loads(capsys.readouterr().out)["items"][0]
    assert (item["G"], item["N"], item["method"], item["value"]) == \
        (g, "AxCp(A6,2)", "formula-product-type", value)


def test_screen_command(capsys):
    rc = main(["screen", "-G", "PGL(2,9)", "-N", "SL(2,9)", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["shape_verdict"] == "excluded"
    assert payload["conditions"]["condition-3"]["status"] == "fails"


def test_bad_spec_exits_2(capsys):
    assert main(["info", "-G", "NOPE"]) == 2


# what the test writes to g.txt, or None when it writes no file
@pytest.mark.parametrize("spec, content", [
    ("PGL(2,6)", None),
    ("SL(2,1)", None),
    ("PSL(2,0)", None),
    ("AxCp(A5,4)", None),
    ("file:{tmp}/missing.txt", None),
    ("file:{tmp}", None),  # a directory
    ("file:{tmp}/g.txt", b"\xff\xfe perm 3\n"),
    ("file:{tmp}/g.txt", b"perm 0\n()\n"),
    ("file:{tmp}/g.txt", b"perm -3\n()\n"),
], ids=["PGL(2,6)", "SL(2,1)", "PSL(2,0)", "AxCp(A5,4)", "missing-file", "directory",
        "undecodable-file", "degree-0", "degree-negative"])
def test_malformed_spec_or_group_file_exits_2(spec, content, tmp_path, capsys):
    if content is not None:
        (tmp_path / "g.txt").write_bytes(content)
    assert main(["info", "-G", spec.format(tmp=tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("spec error:")


def test_infeasible_exits_3(capsys):
    rc = main(["count", "-G", "C16", "-N", "C16", "--method", "brute"])
    assert rc == 3


def test_engine_error_exits_4(capsys, monkeypatch):
    def broken(args):
        raise EngineError("invariant failed")

    monkeypatch.setattr(cli, "_cmd_info", broken)
    assert main(["info", "-G", "C4"]) == 4
    assert "internal error: invariant failed" in capsys.readouterr().err


def test_usage_error_exits_2(capsys):
    assert main(["count", "-G", "C4"]) == 2
    assert main(["bogus"]) == 2


def test_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    assert capsys.readouterr().out == (
        "Cn (cyclic)\nDn (dihedral, n>=3)\nSn (2<=n<=6)\nAn (3<=n<=6)\nV4\nQ8\n"
        "SL(2,q) q<=11\nPSL(2,q) q<=11\nPGL(2,q) q<=11\nM10\nAut(A6)\n"
        "AxCp(<spec>,<p>)\n<spec>x<spec> (direct product)\n"
        "file:<path> (perm/table group file)\n")


@pytest.mark.parametrize("content", ["table 6\n" + "".join(
    " ".join(str((i + j) % 6) for j in range(6)) + "\n" for i in range(6)),
    "perm 6\n(0 1 2 3 4 5)\n"], ids=["table", "perm"])
def test_group_file_over_the_table_cap_exits_3(content, tmp_path, monkeypatch, capsys):
    (tmp_path / "c6.grp").write_text(content)
    monkeypatch.setenv("HGS_MAX_TABLE", "4")
    assert main(["info", "-G", f"file:{tmp_path}/c6.grp"]) == 3
    assert capsys.readouterr().err.startswith("infeasible:")


def test_verify_suite_exit_codes(capsys):
    rc = main(["verify", "--suite", "paper-120", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert len(payload["items"]) == 7


def test_group_error_exits_1(capsys):
    rc = main(["count", "-G", "C4", "-N", "C6", "--method", "byott"])
    assert rc == 1
    assert "error: count needs |G| = |N|" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["count", "-G", "C4", "-N", "V4", "--method", "byott", "--resume", "run.ckpt"],
    ["verify", "--suite", "small", "--checkpoint-dir", "ckpt"],
    ["verify", "--suite", "small", "--jobs", "2"],
    ["count", "-G", "S5", "-N", "S5", "--method", "byott", "--jobs", "2"],
])
def test_removed_checkpoint_options_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_removed_stretch_suite_is_a_usage_error(capsys):
    assert main(["verify", "--suite", "stretch-720"]) == 2
    assert "invalid choice: 'stretch-720'" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli():
    src = Path(hgs.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-m", "hgs", "catalog", "list"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
    assert "M10" in run.stdout.split()
