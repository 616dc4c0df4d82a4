import json
import runpy
import sys
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fraccore import balance, frac_core, gallery, tu_solver
from fraccore.cli import _build_parser, main
from fraccore.formats import (
    complex_from_json,
    cover_from_json,
    cover_to_json,
    firm_system_from_json,
    game_from_json,
    game_to_json,
    rational_vector_json,
    serialize,
    tu_from_json,
    tu_to_json,
)
from fraccore.rationals import rat_json
from fraccore.errors import BoundaryTouchesBalanced
from fraccore.game_model import ComprehensiveSet, FirmSystem, GeneralizedGame, point_orthant
from fraccore.topology import (
    BalancedSimplexFound,
    CubeRegion,
    Degree,
    LabeledCover,
    SimplicialComplex,
    boundary_complex,
    closed_star_cover,
    hopf_invariant,
    index_sum_check,
    induce_labeling,
    pl_degree,
    propagate_orientation,
    rainbow_simplices,
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


@pytest.mark.parametrize(
    "point, accepted, info",
    [
        ("[-8,-12,-15]", True, "admissible and unblocked"),
        ("[-20,-20,-20]", False, "blocked by firms [0, 1, 3, 4, 5, 6]"),
        ("[100,100,100]", False, "point is in no utility set"),
        ("[-10,100,100]", False, "member set (0,) is not balanced"),
    ],
)
def test_verify_point_reasons(capsys, point, accepted, info):
    code, rep = run_cli(
        capsys, "frac-core", data_path("example1-embedded.json"), "--verify-point", point
    )
    assert code == 0
    assert rep["details"]["verify_point"] == {"accepted": accepted, "info": info}


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


@pytest.mark.parametrize("subset", ["[0,", "5", '["a"]', "[0, 99]", "[0, 0]"])
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


def test_module_entry_point(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["fraccore", "examples", "list"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("fraccore", run_name="__main__")
    assert exit_info.value.code == 0
    assert json.loads(capsys.readouterr().out)["details"]["names"][0] == "example1"


def test_examples_modified_report(capsys):
    code, rep = run_cli(capsys, "examples", "example1-modified")
    assert code == 0
    d = rep["details"]
    assert d["tu_core"] == "empty"
    assert d["fractional_core"] == "nonempty"
    assert d["worked_point_verified"] is True
    assert d["violating_weights"] == ["1/2", "1/2", "1/2"]
    assert set(d["witness"]["coalition_weights"].values()) == {"1/2"}


def test_coalition_weights_only_on_the_coalition_firm_system(capsys, tmp_path):
    code, rep = run_cli(capsys, "frac-core", data_path("example1-embedded.json"))
    assert code == 0
    assert rep["details"]["witness"]["coalition_weights"]
    # three firms in two coordinates, as many as the coalitions of two
    # players, but not their firm system
    game = GeneralizedGame(
        tuple(ComprehensiveSet((point_orthant((0, 0)),)) for _ in range(3)),
        FirmSystem(firms=[(2, 1), (1, 2), (1, 1)], resource=(1, 1)),
    )
    path = tmp_path / "three-firms.json"
    path.write_text(serialize(game_to_json(game)))
    code, rep = run_cli(capsys, "frac-core", str(path))
    assert code == 0
    assert rep["verdict"] == "nonempty"
    assert rep["details"]["witness"]["active_firms"] == [2]
    assert "coalition_weights" not in rep["details"]["witness"]


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


@pytest.mark.parametrize(
    "name, build",
    [
        ("example1.json", lambda: tu_to_json(gallery.loss_sharing_tu())),
        ("example1-modified.json", lambda: tu_to_json(gallery.loss_sharing_tu_modified())),
        (
            "example1-embedded.json",
            lambda: game_to_json(frac_core.embed_coalitional(gallery.loss_sharing_tu())),
        ),
        ("example2.json", lambda: game_to_json(gallery.directed_transfers_game())),
        ("symmetric-s1.json", lambda: game_to_json(gallery.symmetric_pairs_game_s1())),
        ("symmetric-s2.json", lambda: game_to_json(gallery.symmetric_pairs_game_s2())),
        ("hopf-game.json", lambda: game_to_json(gallery.hopf_fibration_game())),
    ],
)
def test_shipped_files_match_the_gallery(name, build):
    # the CLI reads hopf-game.json instead of rebuilding the game
    raw = resources.files("fraccore").joinpath(f"data/{name}").read_text()
    assert serialize(build()) == raw


# ---------------------------------------------------------------------------
# malformed input: exit 3 with a path, never a traceback
# ---------------------------------------------------------------------------


def assert_malformed(capsys, argv, path):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith(f"malformed input: {path}")
    assert "Traceback" not in captured.err
    return captured.err


def data_json(name):
    return json.loads(resources.files("fraccore").joinpath(f"data/{name}").read_text())


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


TWO_BUBBLES = "two-bubble cover"
DELETED = object()  # a mutation that deletes the field


def _cover_doc():
    return cover_to_json(gallery.two_bubble_cover(1, 1))


def _mutate(doc, keys, value):
    """Set the field at the path ``keys`` of ``doc`` to ``value``, or delete it."""
    *parents, last = keys
    for key in parents:
        doc = doc[key]
    if value is DELETED:
        del doc[last]
    else:
        doc[last] = value


def test_balance_firm_system_not_an_object(capsys, tmp_path):
    number = write_json(tmp_path, "number.json", 5)
    assert_malformed(capsys, ["balance", "enumerate", "--input", number], "$")
    other = ["--input", data_path("symmetric-s1.json"), "--other", number]
    assert_malformed(capsys, ["balance", "equivalent", *other], "$")


TRIANGLE = "[[-40,20,20],[20,-40,20],[20,20,-40]]"


@pytest.mark.parametrize(
    "region, path",
    [
        (["--vertices", "notjson"], "$.vertices"),
        (["--vertices", "5"], "$.vertices"),
        (["--vertices", '[[0, 0, 0], "x"]'], "$.vertices[1]"),
        (["--vertices", "[[1, 2], [3, 4]]"], "$.vertices[0]"),
        (["--vertices", "[]"], "$.vertices"),
        (["--region", "cube", "--center", "[0, 0]"], "$.center"),
        (["--region", "cube", "--center", "[0,0,0]", "--halfwidth", "abc"], "$.halfwidth"),
        (["--region", "cube", "--center", "notjson"], "$.center"),
        (["--region", "cube", "--center", "{}"], "$.center"),
        (["--region", "cube", "--center", "[0,0,0]", "--halfwidth", "0"], "$.halfwidth"),
        (["--region", "cube", "--center", "[0,0,0]", "--halfwidth=-1/2"], "$.halfwidth"),
        (["--region", "cube", "--center", "[0,0,0]", "--halfwidth", "-1/2"], "$.halfwidth"),
        (["--region", "cube", "--center", "[0,0,0]", "--halfwidth", "-0.5"], "$.halfwidth"),
        # a negative depth, attached to the option or as a separate argument
        (["--vertices", TRIANGLE, "--depth=-1"], "$.depth"),
        (["--vertices", TRIANGLE, "--depth", "-1"], "$.depth"),
        (["--vertices", TRIANGLE, "--depth", "-3"], "$.depth"),
        (["--region", "cube", "--center", "[0,0,0]", "--depth=-1"], "$.depth"),
        (["--region", "cube", "--center", "[0,0,0]", "--depth", "-1"], "$.depth"),
    ],
)
def test_induce_cover_malformed_region(capsys, region, path):
    argv = ["induce-cover", data_path("example1-embedded.json"), *region]
    assert_malformed(capsys, argv, path)


@pytest.mark.parametrize(
    "command, data, option",
    [("frac-core", "example1-embedded.json", "verify"), ("tu-core", "example1.json", "check")],
)
def test_point_of_wrong_length(capsys, command, data, option):
    argv = [command, data_path(data), f"--{option}-point", "[1, 2]"]
    assert_malformed(capsys, argv, f"$.{option}_point")


def test_player_count_must_be_positive(capsys):
    assert main(["balance", "minimal", "--players", "0"]) == 1
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("frac-core", "--firm-cap", "-3"),
        ("frac-core", "--firm-cap", "0"),
        ("frac-core", "--node-cap", "-1"),
        ("frac-core", "--node-cap", "0"),
        ("core", "--node-cap", "0"),
        ("game-balanced", "--firm-cap", "-1"),
    ],
)
def test_caps_below_one_are_usage_errors(capsys, command, option, value):
    # no game has fewer than one firm and no search fewer than one node, so
    # such a cap can never be met
    argv = [command, data_path("example2.json"), option, value]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"usage error: {option} must be at least 1\n"


def test_firm_vector_of_wrong_length(capsys, tmp_path):
    game = data_json("example2.json")
    game["firms"][1] = [1, 0]
    path = write_json(tmp_path, "game.json", game)
    assert_malformed(capsys, ["frac-core", path], "$.firms[1]")
    fs = write_json(tmp_path, "fs.json", {"firms": [[1, 0], [0]], "resource": [1, 1]})
    assert_malformed(capsys, ["balance", "enumerate", "--input", fs], "$.firms[1]")


def test_utilities_of_mixed_dimension(capsys, tmp_path):
    game = data_json("example2.json")
    for prim in game["utilities"][2]["primitives"]:
        for h in prim["halfspaces"]:
            h["a"] = h["a"] + [1]
    path = write_json(tmp_path, "game.json", game)
    assert_malformed(capsys, ["validate", path], "$.utilities[2]")


@pytest.mark.parametrize("command", ["core", "game-balanced"])
def test_distinguished_firm_required(capsys, command):
    assert_malformed(capsys, [command, data_path("example2.json")], "$.distinguished")


@pytest.mark.parametrize(
    "command, data, field, value, path",
    [
        ("hopf", "sphere-asset.json", "facets", [[]], "$"),
        ("hopf", "sphere-asset.json", "facets", [[0, True, 2, 5]], "$.facets"),
        ("validate", "example2.json", "utilities", [], "$.utilities"),
        ("validate", "example2.json", "distinguished", "x", "$.distinguished"),
        ("validate", "example2.json", "distinguished", 99, "$.distinguished"),
        ("validate", "example2.json", "dimension", 4, "$.dimension"),
        ("hopf", "sphere-asset.json", "facets", [[]], "$.facets: empty facet"),
        ("hopf", "sphere-asset.json", "facets", [[0, 1, 2, 99]], "$.facets: facet"),
        ("validate", "example2.json", "firms", 5, "$.firms: expected a list"),
        ("hopf", "sphere-asset.json", "orientation", [1], "$.orientation: one sign per facet"),
        ("degree", "sphere-asset.json", "orientation", [1], "$.orientation: one sign per facet"),
        ("validate", "example2.json", "utilities", "x", "$.utilities: expected a list"),
        # nested fields, dot-separated, and deleted ones
        (
            "validate",
            "example2.json",
            "utilities.0.primitives.0.halfspaces.0",
            {},
            "$.utilities[0].primitives[0].halfspaces[0].a: missing field",
        ),
        ("validate", "example2.json", "utilities.0", [], "$.utilities[0]: expected an object"),
        ("validate", "example2.json", "utilities.0.primitives", 5, "$.utilities[0].primitives:"),
        ("validate", "example2.json", "utilities", {"a": 1}, "$.utilities: expected a list"),
        ("validate", "example2.json", "resource", DELETED, "$.resource: missing field"),
        ("validate", "example2.json", "utilities.0", DELETED, "$.utilities: one utility set"),
        ("tu-core", "example1.json", "n", DELETED, "$.n: missing field"),
        ("tu-core", "example1.json", "values", [], "$.values: expected an object"),
        ("tu-core", "example1.json", "values.1,2", DELETED, "$.values: 6 of the 2^3 - 1"),
        ("hopf", "sphere-asset.json", "facets", DELETED, "$.facets: missing field"),
        ("degree", TWO_BUBBLES, "labels.0", [9], "$.labels: label outside the firm range"),
    ],
)
def test_malformed_field(capsys, tmp_path, command, data, field, value, path):
    doc = _cover_doc() if data == TWO_BUBBLES else data_json(data)
    _mutate(doc, [int(k) if k.isdigit() else k for k in field.split(".")], value)
    assert_malformed(capsys, [command, write_json(tmp_path, "doc.json", doc)], path)


def test_incomplete_tu_values_are_counted(capsys, tmp_path):
    # a list of the missing coalitions doubles with each player, and a huge
    # n must not compute 2^n
    for n in (17, 10**30):
        path = write_json(tmp_path, "tu.json", {"n": n, "values": {"1": 0}})
        err = assert_malformed(capsys, ["tu-core", path], "$.values")
        assert len(err) < 1000


def test_hopf_needs_an_orientable_complex(capsys, tmp_path):
    # the 6-vertex projective plane: no orientation given, none derivable
    rp2 = [[0, 1, 2], [0, 1, 3], [0, 2, 4], [0, 3, 5], [0, 4, 5],
           [1, 2, 5], [1, 3, 4], [1, 4, 5], [2, 3, 4], [2, 3, 5]]
    doc = {"vertices": 6, "facets": rp2, "labels": [[v % 4] for v in range(6)]}
    path = write_json(tmp_path, "rp2.json", doc)
    assert_malformed(capsys, ["hopf", path], "$.orientation: missing and not derivable")


def test_hopf_needs_a_label_per_vertex(capsys, tmp_path):
    sphere = data_json("sphere-asset.json")
    sphere["labels"] = sphere["labels"][:-1]
    assert_malformed(capsys, ["hopf", write_json(tmp_path, "s.json", sphere)], "$.labels")


def _game_with_halfspaces(tmp_path, halfspaces):
    game = data_json("example2.json")
    game["utilities"][1]["primitives"][0]["halfspaces"] = halfspaces
    return write_json(tmp_path, "game.json", game)


def test_negative_normal_names_its_field(capsys, tmp_path):
    path = _game_with_halfspaces(tmp_path, [{"a": [0, 1, 0], "b": 0}, {"a": [1, -1, 0], "b": 0}])
    err = assert_malformed(
        capsys, ["frac-core", path], "$.utilities[1].primitives[0].halfspaces[1].a:"
    )
    assert "nonnegative" in err


def test_zero_normal_names_its_field(capsys, tmp_path):
    path = _game_with_halfspaces(tmp_path, [{"a": [0, 0, 0], "b": 1}])
    err = assert_malformed(
        capsys, ["frac-core", path], "$.utilities[1].primitives[0].halfspaces[0].a:"
    )
    assert "nonzero" in err


def test_halfspaces_of_mixed_length_name_their_primitive(capsys, tmp_path):
    path = _game_with_halfspaces(tmp_path, [{"a": [0, 1, 0], "b": 0}, {"a": [1, 1], "b": 0}])
    assert_malformed(capsys, ["frac-core", path], "$.utilities[1].primitives[0]:")


def test_empty_primitive_list_names_its_field(capsys, tmp_path):
    game = data_json("example2.json")
    game["utilities"][1]["primitives"] = []
    path = write_json(tmp_path, "game.json", game)
    assert_malformed(capsys, ["frac-core", path], "$.utilities[1].primitives:")


@pytest.mark.parametrize(
    "values, key",
    [
        ({"1": 0, "2": 0, "1,2": 1, "2,1": 5}, "2,1"),
        ({" 1": 0, "2": 0, "1,2": 1}, " 1"),
        ({"1": 0, "+2": 0, "1,2": 1}, "+2"),
        ({"1": 0, "2": 0, "1,2": 1, "1,1": 0}, "1,1"),
        ({"1": 0, "2": 0, "1,2": 1, "2,3": 0}, "2,3"),
    ],
)
def test_tu_coalition_keys_name_distinct_coalitions(capsys, tmp_path, values, key):
    # int(s) - 1 read " 1" and "+2" as players, "1,1" as a coalition and
    # let "2,1" overwrite v({1,2}), giving the core point (5, 0); player 3
    # of 2 was reported without the key's path
    doc = {"schema": "fraccore.tu/1", "n": 2, "values": values}
    path = write_json(tmp_path, "tu.json", doc)
    assert_malformed(capsys, ["tu-core", path], f"$.values[{key!r}]")


@pytest.mark.parametrize(
    "text, key",
    [
        ('"n": 2, "values": {"1": 0, "2": 0, "1,2": 1, "1,2": 5}', "1,2"),
        ('"n": 3, "n": 2, "values": {"1": 0, "2": 0, "1,2": 1}', "n"),
    ],
)
def test_repeated_json_key_in_a_file(capsys, tmp_path, text, key):
    # plain json.load kept the last value: core point (5, 0), or a 2-player game
    path = tmp_path / "tu.json"
    path.write_text('{"schema": "fraccore.tu/1", ' + text + "}")
    err = assert_malformed(capsys, ["tu-core", str(path)], "$")
    assert f"repeated key {key!r}" in err


def test_repeated_json_key_in_an_argument(capsys):
    argv = ["tu-core", data_path("example1.json"), "--check-point", '{"a": 1, "a": 2}']
    err = assert_malformed(capsys, argv, "$.check_point")
    assert "repeated key 'a'" in err


def test_tu_key_with_a_huge_player_number(capsys, tmp_path):
    # not read by int(), which rejects a numeral of over 4,300 digits
    doc = {"n": 1, "values": {"1" * 5000: 0}}
    path = write_json(tmp_path, "tu.json", doc)
    assert_malformed(capsys, ["tu-core", path], "$.values['11111")


def test_tu_coalition_key_order_is_free():
    doc = {"schema": "fraccore.tu/1", "n": 2, "values": {"2": 0, "1": 0, "2,1": 1}}
    assert tu_from_json(doc).values == {(0,): 0, (1,): 0, (0, 1): 1}


def _file_commands():
    """(argv before the file, a valid document) for each file-reading command."""
    game, tu = data_json("example2.json"), data_json("example1.json")
    embedded, cover = data_json("example1-embedded.json"), _cover_doc()
    fs = {"firms": game["firms"], "resource": game["resource"]}
    other = ["balance", "equivalent", "--input", data_path("example2.json"), "--other"]
    vertices = ["--vertices", "[[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]"]
    return [
        (["validate"], game),
        (["frac-core"], game),
        (["core"], embedded),
        (["game-balanced"], embedded),
        (["induce-cover", *vertices, "--depth", "0"], game),
        (["tu-core"], tu),
        (["tu-balanced"], tu),
        (["embed"], tu),
        (["degree"], cover),
        (["rainbow"], cover),
        (["index-sum"], cover),
        (["hopf"], data_json("sphere-asset.json")),
        (["balance", "enumerate", "--input"], fs),
        (other, fs),
    ]


FILE_COMMANDS = _file_commands()


def _leaves(obj, path=()):
    """Paths of the scalars below the top level of a document."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaves(value, (*path, key))
        elif path:
            yield (*path, key)


def _not_rational(text):
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError):
        return True
    return False


JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4).filter(_not_rational),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)

# keys no TU document may hold: not canonical player numbers in 1..n, a
# repeated player, or a coalition the document already names in another order
BAD_COALITION_KEYS = (" 1", "+2", "01", "1,1", "2,1", "0", "4", "1,", "")

# top-level counts: a positive JSON integer and nothing else, not even the
# same number as a float or a numeral
COUNT_FIELDS = ("n", "vertices", "dimension")
COUNT_JUNK = st.one_of(
    JUNK,
    st.integers(max_value=0),
    st.integers(1, 20).map(float),
    st.integers(1, 20).map(str),
)


@st.composite
def broken_documents(draw):
    """A command and its valid document with one scalar or count replaced by
    junk, with a bad coalition key added to a TU document, or with the whole
    document replaced by a value that is not an object."""
    argv, doc = draw(st.sampled_from(FILE_COMMANDS))
    if draw(st.booleans()):
        return argv, draw(JUNK.filter(lambda v: not isinstance(v, dict)))
    doc = json.loads(json.dumps(doc))
    if "values" in doc and draw(st.booleans()):
        doc["values"][draw(st.sampled_from(BAD_COALITION_KEYS))] = 0
        return argv, doc
    counts = [(key,) for key in COUNT_FIELDS if key in doc]
    *parents, last = draw(st.sampled_from(sorted(_leaves(doc), key=str) + counts))
    target = doc
    for key in parents:
        target = target[key]
    target[last] = draw(JUNK if parents else COUNT_JUNK)
    return argv, doc


@given(broken_documents())
@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_fuzzed_files_exit_3_without_traceback(capsys, tmp_path, case):
    argv, doc = case
    path = write_json(tmp_path, "doc.json", doc)
    assert_malformed(capsys, [*argv, path], "$")


def _fields(obj, path=()):
    """Paths of the fields below the top level of a document, down to the
    first three entries of every list."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj[:3])
    for key, value in items:
        yield (*path, key)
        if isinstance(value, (dict, list)):
            yield from _fields(value, (*path, key))


def _json_path(keys):
    return "$" + "".join(
        f"[{k}]" if type(k) is int else f".{k}" if k.isidentifier() else f"[{k!r}]"
        for k in keys
    )


MUTATED_DOCUMENTS = [
    (argv, doc, sorted(_fields(doc), key=str))
    for argv, doc in [
        (["validate"], data_json("example2.json")),
        (["tu-core"], data_json("example1.json")),
        (["hopf"], data_json("sphere-asset.json")),
        (["degree"], _cover_doc()),
    ]
]
MUTANTS = (None, 0, -1, 1, 2.5, True, "x", "1/0", [], [[]], {}, [1], [0, 0], [[0]], [-1])

# a reader compares these fields with other top-level fields, so a mutation
# below the first path may be reported at one of the others
COMPARED = {
    ("utilities", 0): ("utilities",),  # each utility's dimension with utility 0's
    ("firms",): ("utilities", "labels"),  # one utility set per firm; labels name firms
    ("resource",): ("firms",),  # each firm's length with the resource's
    ("n",): ("values",),  # coalitions of players 1..n, all 2^n - 1 of them
    ("vertices",): ("facets", "labels"),  # facets' vertices; one label set per vertex
    ("facets",): ("orientation",),  # one sign per facet
}

# Python exception text that a reader's own message never holds
PYTHON_ERROR_TEXT = (
    "object is not", "indices must be", "has no attribute", "not iterable", "missing field '"
)


@st.composite
def one_field_mutations(draw):
    """A command, the path of one field of its document, and the document
    with that field replaced by a mutant or deleted."""
    argv, doc, fields = draw(st.sampled_from(MUTATED_DOCUMENTS))
    keys = draw(st.sampled_from(fields))
    doc = json.loads(json.dumps(doc))
    _mutate(doc, keys, draw(st.sampled_from((*MUTANTS, DELETED))))
    return argv, keys, doc


@given(one_field_mutations())
@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_one_field_mutation_names_its_field(capsys, tmp_path, case):
    argv, keys, doc = case
    code = main([*argv, write_json(tmp_path, "doc.json", doc)])
    err = capsys.readouterr().err
    assert code in (0, 1, 3)
    assert "Traceback" not in err
    if code == 3:
        named = err.removeprefix("malformed input: ").split(": ")[0]
        ancestors = {_json_path(keys[:i]) for i in range(1, len(keys) + 1)}
        # a path inside the mutant names the mutated field too
        allowed = [_json_path(keys) + "[", _json_path(keys) + "."]
        for prefix, fields in COMPARED.items():
            if keys[: len(prefix)] == prefix:
                allowed += [_json_path((f,)) for f in fields]
        assert named in ancestors or named.startswith(tuple(allowed)), (keys, err)
        assert not any(text in err for text in PYTHON_ERROR_TEXT), err


@pytest.mark.parametrize(
    "argv, field",
    [(["tu-core"], "n"), (["hopf"], "vertices"), (["degree"], "vertices"), (["validate"], "dimension")],
)
@pytest.mark.parametrize(
    "junk", [lambda c: c + 0.9, float, str, lambda c: True, lambda c: 0, lambda c: -c]
)
def test_count_must_be_a_positive_json_integer(capsys, tmp_path, argv, field, junk):
    # int() would read c + 0.9, float(c) and str(c) as the count c
    doc = json.loads(json.dumps(next(d for a, d in FILE_COMMANDS if a == argv)))
    doc[field] = junk(doc[field])
    assert_malformed(capsys, [*argv, write_json(tmp_path, "doc.json", doc)], f"$.{field}")


def test_cap_defaults_are_the_library_constants():
    parser = _build_parser()
    caps = {
        "frac-core": (frac_core.DEFAULT_SUBSET_CAP, frac_core.DEFAULT_NODE_CAP),
        "core": (None, frac_core.DEFAULT_NODE_CAP),
        "game-balanced": (frac_core.DEFAULT_SUBSET_CAP, None),
    }
    for command, (firm_cap, node_cap) in caps.items():
        args = parser.parse_args([command, "game.json"])
        assert getattr(args, "firm_cap", None) == firm_cap
        assert getattr(args, "node_cap", None) == node_cap
    assert frac_core.DEFAULT_SUBSET_CAP == balance.DEFAULT_FIRM_CAP


# ---------------------------------------------------------------------------
# each verdict of each command, checked against the library call
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "subset, mode, weights",
    [
        ((1, 0), "convex", balance.convex_balancing_weights),
        ((0, 3), "cone", balance.balancing_weights),
    ],
)
def test_balance_check_not_balanced(capsys, subset, mode, weights):
    fs = firm_system_from_json(data_json("symmetric-s1.json"))
    argv = ["--input", data_path("symmetric-s1.json"), "--subset", json.dumps(subset)]
    code, rep = run_cli(capsys, "balance", "check", *argv, "--mode", mode)
    assert weights(subset, fs) is None
    details = {"subset": list(subset)}
    assert (code, rep["verdict"], rep["details"]) == (0, "not-balanced", details)


@pytest.mark.parametrize(
    "firms, verdict",
    [([[2, 1], [1, 2], [0, 1], [1, 0]], "computed"), ([[1, 0], [-1, 1]], "not-convexifiable")],
)
def test_balance_convexify(capsys, tmp_path, firms, verdict):
    doc = {"firms": firms, "resource": [1, 1]}
    argv = ["balance", "convexify", "--input", write_json(tmp_path, "fs.json", doc)]
    code, rep = run_cli(capsys, *argv)
    out = balance.convexify(firm_system_from_json(doc))
    if isinstance(out, balance.NotConvexifiable):
        details = {"firm_index": out.firm_index}
    else:
        details = {
            "firms": [rational_vector_json(v) for v in out.firms],
            "resource": rational_vector_json(out.resource),
        }
    assert (code, rep["verdict"], rep["details"]) == (0, verdict, details)


@pytest.mark.parametrize(
    "other, verdict",
    [
        # positive rescaling keeps every cone-balanced subset
        ([[4, 2], [2, 4], [0, 3], [5, 0]], "equivalent"),
        # {2, 3} balances (1, 1) only while the last firm points along +x
        ([[2, 1], [1, 2], [0, 1], [-1, 0]], "differs"),
    ],
)
def test_balance_equivalent(capsys, tmp_path, other, verdict):
    first = {"firms": [[2, 1], [1, 2], [0, 1], [1, 0]], "resource": [1, 1]}
    second = {"firms": other, "resource": [1, 1]}
    a, b = write_json(tmp_path, "a.json", first), write_json(tmp_path, "b.json", second)
    code, rep = run_cli(capsys, "balance", "equivalent", "--input", a, "--other", b)
    res = balance.same_balanced_subsets(
        firm_system_from_json(first), firm_system_from_json(second), "cone"
    )
    details = {} if isinstance(res, balance.Equivalent) else {"witness_subset": list(res.witness)}
    assert (code, rep["verdict"], rep["details"]) == (0, verdict, details)


@pytest.mark.parametrize(
    "point, coalition",
    [
        # efficient, but players 2 and 3 get -35 < v({2, 3}) = -32
        ((0, -15, -20), [2, 3]),
        # not efficient, so no coalition is named
        ((0, 0, 0), None),
    ],
)
def test_tu_core_rejects_a_point(capsys, point, coalition):
    game = tu_from_json(data_json("example1.json"))
    argv = ["tu-core", data_path("example1.json"), "--check-point", json.dumps(point)]
    code, rep = run_cli(capsys, *argv)
    check = tu_solver.check_core_point(game, point)
    assert isinstance(check, tu_solver.Reject)
    assert code == 0 and rep["verdict"] == "nonempty"
    assert rep["details"]["check_point"] == {
        "verdict": "reject",
        "coalition": coalition,
        "reason": check.reason,
    }


def test_tu_balanced_balanced(capsys):
    res = tu_solver.is_balanced_tu(tu_from_json(data_json("example1.json")))
    code, rep = run_cli(capsys, "tu-balanced", data_path("example1.json"))
    assert isinstance(res, tu_solver.Balanced)
    details = {"optimum": rat_json(res.optimum)}
    assert (code, rep["verdict"], rep["details"]) == (0, "balanced", details)


def _embedded_modified(tmp_path):
    game = frac_core.embed_coalitional(gallery.loss_sharing_tu_modified())
    return game, write_json(tmp_path, "embedded.json", game_to_json(game))


def test_core_empty(capsys, tmp_path):
    game, path = _embedded_modified(tmp_path)
    code, rep = run_cli(capsys, "core", path)
    assert isinstance(frac_core.core_solve(game), frac_core.Empty)
    assert (code, rep["verdict"], rep["details"]) == (0, "empty", {})


def _union_target_game():
    u = ComprehensiveSet((point_orthant((0, 0)), point_orthant((1, -1))))
    return GeneralizedGame((u,), FirmSystem(firms=[(1, 1)], resource=(1, 1)), distinguished=0)


@pytest.mark.parametrize("case", ["balanced", "violated", "unsupported"])
def test_game_balanced_verdicts(capsys, tmp_path, case):
    if case == "balanced":
        path = data_path("example1-embedded.json")
        game = game_from_json(data_json("example1-embedded.json"))
    elif case == "violated":
        game, path = _embedded_modified(tmp_path)
    else:
        game = _union_target_game()
        path = write_json(tmp_path, "union.json", game_to_json(game))
    code, rep = run_cli(capsys, "game-balanced", path)
    res = frac_core.is_balanced_game(game)
    details = {
        "balanced": lambda: {},
        "unsupported": lambda: {"reason": res.reason},
        "violated": lambda: {"subset": list(res.subset), "point": rational_vector_json(res.point)},
    }[case]()
    assert (code, rep["verdict"], rep["details"]) == (0, case, details)


@pytest.mark.parametrize(
    "data, center, halfwidth, verdict",
    [
        ("example1-embedded.json", "[-8, -12, -15]", "5", "degree"),
        ("symmetric-s2.json", "[1, 1, 1, -3]", "1", "degree"),
        ("symmetric-s2.json", "[0, 0, 0, 0]", "1", "balanced-simplex"),
    ],
)
def test_induce_cube_cover_and_degree(capsys, tmp_path, data, center, halfwidth, verdict):
    argv = ["--region", "cube", "--center", center, "--halfwidth", halfwidth, "--depth", "1"]
    code = main(["induce-cover", data_path(data), *argv])
    out = capsys.readouterr().out
    region = CubeRegion(tuple(json.loads(center)), halfwidth)
    lc = induce_labeling(game_from_json(data_json(data)), region, 1)
    assert code == 0 and out == serialize(cover_to_json(lc))
    path = tmp_path / "cover.json"
    path.write_text(out)
    code, rep = run_cli(capsys, "degree", str(path))
    res = pl_degree(lc)
    if isinstance(res, Degree):
        details = {"value": res.value}
    else:
        details = {"facet": list(res.facet)}
    assert (code, rep["verdict"], rep["details"]) == (0, verdict, details)


@pytest.mark.parametrize("mode", ["cone", "convex"])
def test_rainbow(capsys, tmp_path, mode):
    lc = gallery.two_bubble_cover(1, -1)
    path = write_json(tmp_path, "cover.json", cover_to_json(lc))
    code, rep = run_cli(capsys, "rainbow", path, "--mode", mode)
    facets = [list(f) for f in rainbow_simplices(lc, mode)]
    assert facets
    assert (code, rep["verdict"], rep["details"]) == (
        0,
        "computed",
        {"count": len(facets), "facets": facets},
    )


def test_index_sum(capsys, tmp_path):
    lc = gallery.two_bubble_cover(1, -1)
    code, rep = run_cli(capsys, "index-sum", write_json(tmp_path, "cover.json", cover_to_json(lc)))
    report = index_sum_check(lc)
    assert report.sum_matches
    assert (code, rep["verdict"], rep["details"]) == (
        0,
        "consistent",
        {
            "boundary": {"degree": report.boundary_degree.value},
            "components": [{"facets": list(f), "index": ix} for f, ix in report.components],
        },
    )


def test_index_sum_with_a_balanced_region_boundary_exits_1(capsys, tmp_path):
    # a square disk around vertex 4 whose rim edge (0, 1), labelled {0} and
    # {1}, is convex-balanced: (2,0)/2 + (0,2)/2 = (1,1).  The facet holding
    # that edge is balanced and lies on the region boundary, so its component
    # check raises before a report holds the rim's balanced simplex.
    fs = FirmSystem(firms=[(2, 0), (0, 2), (1, 0)], resource=(1, 1))
    disk = SimplicialComplex(5, ((0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 4)))
    labels = [{0}, {1}, {2}, {2}, {2}]
    lc = LabeledCover(propagate_orientation(disk), labels, fs)
    rim = LabeledCover(boundary_complex(lc.oriented), labels, fs)
    assert pl_degree(rim) == BalancedSimplexFound((0, 1))
    with pytest.raises(BoundaryTouchesBalanced, match="boundary of its own neighborhood"):
        index_sum_check(lc)
    code = main(["index-sum", write_json(tmp_path, "cover.json", cover_to_json(lc))])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith("error: BoundaryTouchesBalanced: component reaches")


def test_hopf_derives_a_missing_orientation(capsys, tmp_path):
    doc = data_json("sphere-asset.json")
    del doc["orientation"]
    code, rep = run_cli(capsys, "hopf", write_json(tmp_path, "s.json", doc))
    oc, labels = complex_from_json(doc)
    assert oc == propagate_orientation(oc.complex)
    value = hopf_invariant(oc, [min(ls) for ls in labels])
    assert (code, rep["verdict"], rep["details"]) == (0, "computed", {"hopf_invariant": value})


def test_examples_against_the_library(capsys):
    from fraccore.topology.s3_12 import load

    expected = {}
    tu = gallery.loss_sharing_tu()
    expected["example1"] = {
        "tu_core": "nonempty",
        "core_point": rational_vector_json(tu_solver.core_nonempty(tu).allocation),
        "worked_allocation_accepted": True,
        "tu_balanced": True,
        "generalized_core": "nonempty",
    }
    for name, game in (
        ("symmetric-s1", gallery.symmetric_pairs_game_s1()),
        ("symmetric-s2", gallery.symmetric_pairs_game_s2()),
    ):
        res = frac_core.fractional_core_solve(game)
        verdict = "nonempty" if isinstance(res, frac_core.Nonempty) else "empty"
        expected[name] = {"fractional_core": verdict}
    expected["two-bubbles"] = {}
    for pair in ((1, 1), (1, -1), (-1, -1)):
        rep = index_sum_check(gallery.two_bubble_cover(*pair))
        expected["two-bubbles"]["%+d%+d" % pair] = {
            "boundary_degree": rep.boundary_degree.value,
            "indices": [ix for _, ix in rep.components],
            "matches": rep.sum_matches,
        }
    oc, coloring = load()
    hopf_game = game_from_json(data_json("hopf-game.json"))
    fs = hopf_game.firm_system
    expected["hopf"] = {
        "asset_valid": True,
        "vertices": oc.complex.num_vertices,
        "facets": len(oc.complex.facets),
        "rainbow_facets": len(rainbow_simplices(closed_star_cover(oc, coloring, fs), "cone")),
        "hopf_invariant": hopf_invariant(oc, coloring),
        "fractional_core": "nonempty"
        if isinstance(frac_core.fractional_core_solve(hopf_game), frac_core.Nonempty)
        else "empty",
    }
    for name, details in expected.items():
        code, rep = run_cli(capsys, "examples", name)
        assert code == 0 and rep["verdict"] == "computed"
        got = rep["details"]
        if name.startswith("symmetric"):
            got.pop("witness", None)
        assert got == details, name


@pytest.mark.parametrize(
    "name, key",
    [
        ("example1", "generalized_core"),
        ("example1-modified", "fractional_core"),
        ("symmetric-s1", "fractional_core"),
        ("hopf", "fractional_core"),
    ],
)
def test_examples_report_an_empty_core(capsys, monkeypatch, name, key):
    monkeypatch.setattr(frac_core, "core_solve", lambda game: frac_core.Empty())
    monkeypatch.setattr(frac_core, "fractional_core_solve", lambda game: frac_core.Empty())
    code, rep = run_cli(capsys, "examples", name)
    assert code == 0 and rep["details"][key] == "empty"
    assert "witness" not in rep["details"]


def test_unknown_example_is_malformed(capsys):
    assert_malformed(capsys, ["examples", "no-such-example"], "$")


def test_library_error_exits_1(capsys, tmp_path):
    # a disk is not a closed manifold, so pl_degree raises
    path = write_json(tmp_path, "disk.json", cover_to_json(gallery.two_bubble_cover(1, 1)))
    code = main(["degree", path])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith("error: NotClosedManifold: ")
    assert "Traceback" not in captured.err
