import json
from importlib import resources

import pytest

from fraccore.cli import main
from fraccore.formats import (
    cover_from_json,
    cover_to_json,
    game_from_json,
    serialize,
    tu_from_json,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def data_path(name: str) -> str:
    return str(resources.files("fraccore").joinpath(f"data/{name}"))


def test_tu_core_worked_example(capsys):
    code, rep = run_cli(
        capsys, "tu-core", data_path("example1.json"), "--check-point", "[-8,-12,-15]"
    )
    assert code == 0
    assert rep["verdict"] == "nonempty"
    assert rep["details"]["check_point"]["verdict"] == "accept"


def test_tu_core_modified_empty(capsys):
    code, rep = run_cli(capsys, "tu-core", data_path("example1-modified.json"))
    assert code == 0
    assert rep["verdict"] == "empty"


def test_tu_balanced_modified(capsys):
    code, rep = run_cli(capsys, "tu-balanced", data_path("example1-modified.json"))
    assert code == 0
    assert rep["verdict"] == "violated"
    assert rep["details"]["family"] == [[1, 2], [1, 3], [2, 3]]
    assert rep["details"]["weights"] == ["1/2", "1/2", "1/2"]
    assert rep["details"]["value"] == -41


def test_frac_core_example2_empty(capsys):
    code, rep = run_cli(capsys, "frac-core", data_path("example2.json"))
    assert code == 0
    assert rep["verdict"] == "empty"


def test_frac_core_embedded_with_verify(capsys):
    code, rep = run_cli(
        capsys,
        "frac-core",
        data_path("example1-embedded.json"),
        "--verify-point",
        "[-8,-12,-15]",
    )
    assert code == 0
    assert rep["verdict"] == "nonempty"
    assert rep["details"]["verify_point"]["accepted"] is True


def test_embed_roundtrip(capsys, tmp_path):
    code = main(["embed", data_path("example1.json")])
    out = capsys.readouterr().out
    assert code == 0
    obj = json.loads(out)
    game = game_from_json(obj)
    assert game.firm_count == 7
    assert serialize(obj) == out


def test_validate(capsys):
    code, rep = run_cli(capsys, "validate", data_path("example2.json"))
    assert code == 0
    assert rep["verdict"] == "valid"


def test_balance_minimal(capsys):
    code, rep = run_cli(capsys, "balance", "minimal", "--players", "3")
    assert code == 0
    assert rep["details"]["count"] == 6


def test_balance_enumerate_and_check(capsys):
    code, rep = run_cli(
        capsys, "balance", "enumerate", "--input", data_path("symmetric-s1.json")
    )
    assert code == 0
    subsets = [tuple(s) for s in rep["details"]["balanced_subsets"]]
    assert (0, 2) in subsets and (1, 3) in subsets
    code, rep = run_cli(
        capsys,
        "balance",
        "check",
        "--input",
        data_path("symmetric-s1.json"),
        "--subset",
        "[0,2]",
        "--mode",
        "convex",
    )
    assert code == 0
    assert rep["verdict"] == "balanced"
    assert rep["details"]["weights"] == ["1/2", "1/2"]


@pytest.mark.parametrize("subset", ["[0,", "5", '["a"]', "[0, 99]"])
def test_balance_check_malformed_subset(capsys, subset):
    code = main(
        ["balance", "check", "--input", data_path("symmetric-s1.json"), "--subset", subset]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "$.subset" in captured.err
    assert "Traceback" not in captured.err


def test_core_takes_no_firm_cap(capsys):
    assert main(["core", data_path("example1-embedded.json"), "--firm-cap", "5"]) == 1
    code, rep = run_cli(capsys, "core", data_path("example1-embedded.json"))
    assert code == 0
    assert rep["verdict"] == "nonempty"


def test_induce_cover_and_degree(capsys, tmp_path):
    vertices = json.dumps(
        [["40", "-20", "-20"], ["-20", "40", "-20"], ["-20", "-20", "40"]]
    )
    code = main(
        [
            "induce-cover",
            data_path("example1-embedded.json"),
            "--region",
            "simplex",
            "--vertices",
            vertices,
            "--depth",
            "3",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    cover_obj = json.loads(out)
    lc = cover_from_json(cover_obj)
    assert serialize(cover_to_json(lc)) == out  # round trip
    path = tmp_path / "cover.json"
    path.write_text(out)
    code, rep = run_cli(capsys, "degree", str(path))
    assert code == 0
    assert rep["verdict"] in ("degree", "balanced-simplex")
    if rep["verdict"] == "degree":
        assert rep["details"]["value"] == 1


def test_examples_list_and_example2(capsys):
    code, rep = run_cli(capsys, "examples", "list")
    assert code == 0
    assert "example1-modified" in rep["details"]["names"]
    code, rep = run_cli(capsys, "examples", "example2")
    assert code == 0
    assert rep["details"]["fractional_core"] == "empty"


def test_examples_modified_report(capsys):
    code, rep = run_cli(capsys, "examples", "example1-modified")
    assert code == 0
    d = rep["details"]
    assert d["tu_core"] == "empty"
    assert d["fractional_core"] == "nonempty"
    assert d["worked_point_verified"] is True
    assert d["violating_weights"] == ["1/2", "1/2", "1/2"]
    assert set(d["witness"]["coalition_weights"].values()) == {"1/2"}


def test_hopf_command(capsys):
    code, rep = run_cli(capsys, "hopf", data_path("sphere-asset.json"))
    assert code == 0
    assert rep["details"]["hopf_invariant"] == 1


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 1
    assert main(["balance", "minimal"]) == 1
    assert main(["balance", "check", "--input", data_path("example2.json")]) == 1


def test_malformed_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["tu-core", str(bad)]) == 3
    missing = tmp_path / "missing-field.json"
    missing.write_text('{"schema": "fraccore.tu/1", "n": 2}')
    assert main(["tu-core", str(missing)]) == 3


def test_cap_exceeded_exit_code(capsys):
    # the empty instance must walk the whole certificate tree, so a
    # one-node budget cannot suffice
    assert main(["frac-core", data_path("example2.json"), "--node-cap", "1"]) == 2


def test_shipped_files_roundtrip():
    from fraccore.formats import game_to_json, tu_to_json

    for name in (
        "example1.json",
        "example1-modified.json",
        "example1-embedded.json",
        "example2.json",
        "symmetric-s1.json",
        "symmetric-s2.json",
        "hopf-game.json",
    ):
        raw = resources.files("fraccore").joinpath(f"data/{name}").read_text()
        obj = json.loads(raw)
        if obj["schema"] == "fraccore.tu/1":
            assert serialize(tu_to_json(tu_from_json(obj))) == raw
        else:
            assert serialize(game_to_json(game_from_json(obj))) == raw
