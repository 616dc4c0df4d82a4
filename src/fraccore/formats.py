"""JSON formats: games, TU games, labeled complexes, reports.

Rationals serialize as plain integers when integral and as "p/q" strings
otherwise; serialization is canonical (sorted keys, two-space indent, one
trailing newline) so parse/serialize round-trips are byte-identical.
Readers reject a malformed field, or a model object it makes invalid, with
MalformedInput naming its path, e.g. ``$.utilities[0].primitives``.
"""

from __future__ import annotations

import json
from itertools import chain

from .errors import DimensionMismatch
from .game_model import (
    ComprehensiveSet,
    FirmSystem,
    GeneralizedGame,
    HalfSpace,
    Primitive,
    TUGame,
)
from .rationals import rat, rat_json
from .topology.complexes import OrientedComplex, SimplicialComplex, propagate_orientation
from .topology.degree import LabeledCover


class MalformedInput(ValueError):
    """Raised with a path to the offending field."""


def serialize(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _name(path):
    """A JSON path as text.  A path is a string or a (parent path, key)
    pair, so that a reader formats it only when it rejects the field."""
    if type(path) is str:
        return path
    parent, key = path
    return f"{_name(parent)}[{key}]" if type(key) is int else f"{_name(parent)}.{key}"


def _object(value, path="$"):
    if not isinstance(value, dict):
        raise MalformedInput(f"{_name(path)}: expected an object")
    return value


def _field(obj, key, path="$"):
    """``obj[key]``, where ``obj`` is the JSON object at ``path``."""
    if key not in _object(obj, path):
        raise MalformedInput(f"{_name((path, key))}: missing field")
    return obj[key]


def _list(value, path):
    """The entries of the JSON list ``value`` at ``path``, each with its path."""
    if not isinstance(value, list):
        raise MalformedInput(f"{_name(path)}: expected a list")
    return (((path, i), v) for i, v in enumerate(value))


def _num(value, path):
    if type(value) is not bool:
        try:
            return rat(value)
        except (ValueError, TypeError, ZeroDivisionError):
            pass
    raise MalformedInput(f"{_name(path)}: not a rational: {value!r}")


def _numvec(values, path):
    return tuple(_num(v, vpath) for vpath, v in _list(values, path))


def _ints(values, path):
    if isinstance(values, list) and {int}.issuperset(map(type, values)):
        return tuple(values)
    raise MalformedInput(f"{path}: expected a list of integers")


def _count(obj, key):
    """The positive JSON integer at ``obj[key]``; floats, strings and
    booleans are not integers."""
    value = _field(obj, key)
    if type(value) is not int or value < 1:
        raise MalformedInput(f"$.{key}: not a positive integer: {value!r}")
    return value


def _int_lists(rows, path):
    if (
        isinstance(rows, list)
        and {list}.issuperset(map(type, rows))
        and {int}.issuperset(map(type, chain.from_iterable(rows)))
    ):
        return tuple(map(tuple, rows))
    raise MalformedInput(f"{path}: expected a list of lists of integers")


def _built(make, path, *args):
    """``make(*args)``, reporting the model's rejection of them at ``path``."""
    try:
        return make(*args)
    except (ValueError, DimensionMismatch) as exc:
        raise MalformedInput(f"{_name(path)}: {exc}") from exc


def firm_system_from_json(obj) -> FirmSystem:
    """The firm system of a game, cover or firm-system document."""
    resource = _numvec(_field(obj, "resource"), "$.resource")
    firms = [_numvec(v, path) for path, v in _list(_field(obj, "firms"), "$.firms")]
    for i, v in enumerate(firms):
        if len(v) != len(resource):
            raise MalformedInput(
                f"$.firms[{i}]: {len(v)} entries, the resource has {len(resource)}"
            )
    return FirmSystem(firms=firms, resource=resource)


def game_to_json(game: GeneralizedGame) -> dict:
    return {
        "schema": "fraccore.game/1",
        "dimension": game.dim,
        "firms": [[rat_json(c) for c in v] for v in game.firm_system.firms],
        "resource": [rat_json(c) for c in game.firm_system.resource],
        "utilities": [
            {
                "primitives": [
                    {
                        "halfspaces": [
                            {
                                "a": [rat_json(c) for c in h.normal],
                                "b": rat_json(h.offset),
                            }
                            for h in p.halfspaces
                        ]
                    }
                    for p in u.primitives
                ]
            }
            for u in game.utilities
        ],
        "distinguished": game.distinguished,
    }


def game_from_json(obj) -> GeneralizedGame:
    utilities = []
    for upath, uobj in _list(_field(obj, "utilities"), "$.utilities"):
        prims = []
        for ppath, pobj in _list(_field(uobj, "primitives", upath), (upath, "primitives")):
            hss = []
            for path, hobj in _list(_field(pobj, "halfspaces", ppath), (ppath, "halfspaces")):
                a = _numvec(_field(hobj, "a", path), (path, "a"))
                b = _num(_field(hobj, "b", path), (path, "b"))
                hss.append(_built(HalfSpace, (path, "a"), a, b))
            prims.append(_built(Primitive, ppath, tuple(hss)))
        utilities.append(_built(ComprehensiveSet, (upath, "primitives"), tuple(prims)))
        if utilities[-1].dim != utilities[0].dim:
            raise MalformedInput(
                f"{_name(upath)}: dimension {utilities[-1].dim}, "
                f"utility 0 has {utilities[0].dim}"
            )
    if not utilities:
        raise MalformedInput("$.utilities: expected at least one utility set")
    fs = firm_system_from_json(obj)
    distinguished = obj.get("distinguished")
    if distinguished is not None and (
        type(distinguished) is not int or not 0 <= distinguished < fs.count
    ):
        raise MalformedInput(f"$.distinguished: not a firm index: {distinguished!r}")
    game = _built(GeneralizedGame, "$.utilities", tuple(utilities), fs, distinguished)
    if "dimension" in obj and _count(obj, "dimension") != game.dim:
        raise MalformedInput(
            f"$.dimension: {obj['dimension']} but half-spaces have {game.dim}"
        )
    return game


def tu_to_json(game: TUGame) -> dict:
    values = {
        ",".join(str(i + 1) for i in coal): rat_json(v)
        for coal, v in game.values.items()
    }
    return {"schema": "fraccore.tu/1", "n": game.n, "values": values}


def tu_from_json(obj) -> TUGame:
    """A ``values`` key names a new coalition: comma-separated canonical
    player numbers in 1..n, none repeated, in any order."""
    n = _count(obj, "n")
    items = _object(_field(obj, "values"), "$.values").items()
    # 2^n - 1 values need n <= the bit length of their count: a larger n
    # is rejected before its players or 2^n are computed
    if n > len(items).bit_length():
        raise MalformedInput(f"$.values: {len(items)} of the 2^{n} - 1 coalitions")
    players = {str(i + 1): i for i in range(n)}
    values = {}
    for key, v in items:
        path = f"$.values[{key!r}]"
        names = key.split(",")
        coal = tuple(sorted({players[s] for s in names if s in players}))
        if len(coal) != len(names) or coal in values:
            raise MalformedInput(f"{path}: not a new coalition of players 1..{n}")
        values[coal] = _num(v, path)
    # the keys are distinct coalitions, so all are there when 2^n - 1 are
    if len(values) != 2**n - 1:
        raise MalformedInput(f"$.values: {len(values)} of the 2^{n} - 1 coalitions")
    return _built(TUGame, "$.values", n, values)


def cover_to_json(lc: LabeledCover) -> dict:
    return {
        "schema": "fraccore.cover/1",
        "vertices": lc.oriented.complex.num_vertices,
        "facets": [list(f) for f in lc.oriented.complex.facets],
        "orientation": list(lc.oriented.orientation),
        "labels": [sorted(ls) for ls in lc.labels],
        "firms": [[rat_json(c) for c in v] for v in lc.firm_system.firms],
        "resource": [rat_json(c) for c in lc.firm_system.resource],
    }


def _complex(obj):
    facets = _int_lists(_field(obj, "facets"), "$.facets")
    return _built(SimplicialComplex, "$.facets", _count(obj, "vertices"), facets)


def _labels(labels):
    return tuple(map(frozenset, _int_lists(labels, "$.labels")))


def cover_from_json(obj) -> LabeledCover:
    K, orientation = _complex(obj), _ints(_field(obj, "orientation"), "$.orientation")
    oc = _built(OrientedComplex, "$.orientation", K, orientation)
    labels = _labels(_field(obj, "labels"))
    return _built(LabeledCover, "$.labels", oc, labels, firm_system_from_json(obj))


def complex_from_json(obj):
    K = _complex(obj)
    orientation = obj.get("orientation")
    if orientation is None:
        oc = propagate_orientation(K)
        if oc is None:
            raise MalformedInput("$.orientation: missing and not derivable")
    else:
        orientation = _ints(orientation, "$.orientation")
        oc = _built(OrientedComplex, "$.orientation", K, orientation)
    labels = obj.get("labels")
    if labels is not None:
        labels = _labels(labels)
    return oc, labels


def point_from_json(obj, path="$.point"):
    return _numvec(obj, path)


def rational_vector_json(v):
    return [rat_json(c) for c in v]
