import json

import pytest

from lrpoly import cli
from lrpoly.cli import run


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_lr_all_methods(capsys):
    code, out = _capture(
        capsys, ["lr", "2,1,0", "2,1,0", "3,2,1", "--method", "all"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["hive"] == 2
    assert payload["steinberg"] == 2
    assert payload["tableaux"] == 2
    assert payload["system"] == 2
    assert payload["agree"] is True


def test_lr_single_method(capsys):
    code, out = _capture(capsys, ["lr", "3,1", "2,2", "4,3,1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "hive"
    assert payload["coefficient"] == 1


def test_lr_sum_mismatch(capsys):
    code, out = _capture(capsys, ["lr", "1", "1", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficient"] == 0
    assert payload["reason"] == "sum mismatch"


def test_lr_bad_partition_is_usage_error(capsys):
    code = run(["lr", "1,2", "1", "2,1,1"])
    assert code == 2


def test_unknown_subcommand_is_usage_error():
    assert run(["frobnicate"]) == 2


def test_stretch_output(capsys):
    code, out = _capture(capsys, ["stretch", "2,1", "2,1", "3,2,1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["polynomial"] == "N+1"
    assert payload["p0"] == "1"
    assert payload["coefficients_nonnegative"] is True


def test_kostant_subcommand(capsys):
    code, out = _capture(capsys, ["kostant", "3", "1,0,-1"])
    assert code == 0
    assert json.loads(out)["count"] == 2


def test_kostant_rejects_bad_weight(capsys):
    assert run(["kostant", "3", "1,0,0"]) == 2
    assert run(["kostant", "3", "1,0"]) == 2
    assert run(["kostant", "3", "a,0,0"]) == 2


def test_chambers_subcommand(capsys):
    code, out = _capture(capsys, ["chambers", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 2
    displays = {r["display"] for r in payload["regions"]}
    assert displays == {"1+v1", "1+v2"}
    assert run(["chambers", "5"]) == 2
    assert run(["chambers", "0"]) == 2


def test_matrix_golden_first_row(capsys):
    code, out = _capture(capsys, ["matrix", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["E"][0] == [1, 1, 0, 0, 0, 0, 0, 0, 0, 0]
    assert payload["B"][0] == [1, 0, 0, 0, 0, 0, 1, 0, 0]
    assert payload["inequality_order"][0] == "square(0,0)"


def test_verify_k3_small(capsys):
    code, out = _capture(capsys, ["verify-k3", "--samples", "3", "--seed", "5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert len(payload["cones"]) == 18


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_k3_rejects_fewer_than_one_sample(capsys, samples):
    code = run(["verify-k3", "--samples", samples])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "samples must be >= 1" in captured.err


def test_one_parser_serves_every_run(monkeypatch, capsys):
    built = []

    def spy():
        built.append(1)
        return real_build()

    real_build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", spy)
    cli._parser.cache_clear()
    try:
        first = _capture(capsys, ["kostant", "3", "1,0,-1"])
        assert run(["chambers", "x"]) == 2
        assert run(["frobnicate"]) == 2
        again = _capture(capsys, ["kostant", "3", "1,0,-1"])
        code, out = _capture(capsys, ["lr", "2,1", "2,1", "3,2,1"])
    finally:
        cli._parser.cache_clear()
    assert built == [1]
    assert first == again and first[0] == 0
    assert code == 0 and json.loads(out)["coefficient"] == 2


def test_generic_subcommand(capsys):
    code, out = _capture(capsys, ["generic", "4,1,0", "3,1,0", "5,3,1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["generic"] is False

    code, out = _capture(capsys, ["generic", "9,3,1", "8,4,1", "14,8,4"])
    assert code == 0
    payload = json.loads(out)
    assert "generic" in payload
    if payload["generic"]:
        assert len(payload["signature_sha256"]) == 64


def test_ktt_subcommand(capsys):
    code, out = _capture(capsys, ["ktt", "2,1", "2,1", "3,2,1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["p0_is_one"] is True
    assert payload["coefficients_nonnegative"] is True


def test_ktt_rejects_zero_coefficient(capsys):
    assert run(["ktt", "2", "2", "2,1,1"]) == 2


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = run(["-o", str(target), "lr", "1", "1", "2"])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["coefficient"] == 1


def test_unwritable_output_path_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    code = run(["-o", str(target), "lr", "1", "1", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not target.exists()


def test_generic_sum_mismatch_is_usage_error(capsys):
    code = run(["generic", "2,1", "1", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "|lambda| + |mu| must equal |nu|" in captured.err


def test_byte_identical_reruns(capsys):
    argv = ["verify-k3", "--samples", "2", "--seed", "9"]
    _, first = _capture(capsys, argv)
    _, second = _capture(capsys, argv)
    assert first == second

    argv = ["stretch", "2,1", "1,1", "2,2,1"]
    _, first = _capture(capsys, argv)
    _, second = _capture(capsys, argv)
    assert first == second
