import json

import pytest

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


def test_count_formula_needs_applicable_shape(capsys):
    rc = main(["count", "-G", "S5", "-N", "C120", "--method", "formula"])
    assert rc == 2


def test_screen_command(capsys):
    rc = main(["screen", "-G", "PGL(2,9)", "-N", "SL(2,9)", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["shape_verdict"] == "excluded"
    assert payload["conditions"]["condition-3"]["status"] == "fails"


def test_bad_spec_exits_2(capsys):
    assert main(["info", "-G", "NOPE"]) == 2


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
    assert "PGL(2,q)" in capsys.readouterr().out


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
])
def test_removed_checkpoint_options_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_removed_stretch_suite_is_a_usage_error(capsys):
    assert main(["verify", "--suite", "stretch-720"]) == 2
    assert "invalid choice: 'stretch-720'" in capsys.readouterr().err
