"""JSON formats: games, TU games, labeled complexes, reports.

Rationals serialize as plain integers when integral and as "p/q" strings
otherwise; serialization is canonical (sorted keys, two-space indent, one
trailing newline) so parse/serialize round-trips are byte-identical.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
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


def _num(value, path):
    if type(value) is not bool:
        try:
            return rat(value)
        except (ValueError, TypeError, ZeroDivisionError):
            pass
    raise MalformedInput(f"{path}: not a rational: {value!r}")


def _numvec(values, path):
    if not isinstance(values, list):
        raise MalformedInput(f"{path}: expected a list")
    return tuple(_num(v, f"{path}[{i}]") for i, v in enumerate(values))


def _ints(values, path):
    if isinstance(values, list) and {int}.issuperset(map(type, values)):
        return tuple(values)
    raise MalformedInput(f"{path}: expected a list of integers")


def _count(obj, key):
    """The positive JSON integer at ``obj[key]``; floats, strings and
    booleans are not integers."""
    value = obj[key]
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


@contextmanager
def _reading():
    """Report any error raised while a document is read as MalformedInput."""
    try:
        yield
    except MalformedInput:
        raise
    except KeyError as exc:
        raise MalformedInput(f"$: missing field {exc}") from exc
    except (ArithmeticError, AttributeError, LookupError, TypeError, ValueError,
            DimensionMismatch) as exc:
        raise MalformedInput(f"$: {exc}") from exc


def _object(obj):
    if not isinstance(obj, dict):
        raise MalformedInput("$: expected an object")
    return obj


def firm_system_from_json(obj) -> FirmSystem:
    """The firm system of a game, cover or firm-system document."""
    with _reading():
        resource = _numvec(_object(obj)["resource"], "$.resource")
        firms = [_numvec(v, f"$.firms[{i}]") for i, v in enumerate(obj["firms"])]
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
    with _reading():
        utilities = []
        for ui, uobj in enumerate(_object(obj)["utilities"]):
            prims = []
            for pi, pobj in enumerate(uobj["primitives"]):
                hss = []
                for hi, hobj in enumerate(pobj["halfspaces"]):
                    path = f"$.utilities[{ui}].primitives[{pi}].halfspaces[{hi}]"
                    hss.append(
                        HalfSpace(_numvec(hobj["a"], path + ".a"), _num(hobj["b"], path + ".b"))
                    )
                prims.append(Primitive(tuple(hss)))
            utilities.append(ComprehensiveSet(tuple(prims)))
            if utilities[-1].dim != utilities[0].dim:
                raise MalformedInput(
                    f"$.utilities[{ui}]: dimension {utilities[-1].dim}, "
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
        game = GeneralizedGame(tuple(utilities), fs, distinguished=distinguished)
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


_COALITION = re.compile("[1-9][0-9]*(,[1-9][0-9]*)*")


def tu_from_json(obj) -> TUGame:
    """A ``values`` key names a new coalition: comma-separated canonical
    player numbers in 1..n, none repeated, in any order."""
    with _reading():
        n = _count(_object(obj), "n")
        values = {}
        for key, v in obj["values"].items():
            path = f"$.values[{key!r}]"
            coal = ()
            if _COALITION.fullmatch(key):
                coal = tuple(sorted({int(s) - 1 for s in key.split(",")}))
            if len(coal) != key.count(",") + 1 or coal[-1] >= n or coal in values:
                raise MalformedInput(f"{path}: not a new coalition of players 1..{n}")
            values[coal] = _num(v, path)
        return TUGame(n, values)


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
    facets = _int_lists(_object(obj)["facets"], "$.facets")
    return SimplicialComplex(_count(obj, "vertices"), facets)


def _labels(labels):
    return tuple(map(frozenset, _int_lists(labels, "$.labels")))


def cover_from_json(obj) -> LabeledCover:
    with _reading():
        oc = OrientedComplex(_complex(obj), _ints(obj["orientation"], "$.orientation"))
        return LabeledCover(oc, _labels(obj["labels"]), firm_system_from_json(obj))


def complex_from_json(obj):
    with _reading():
        K = _complex(obj)
        orientation = obj.get("orientation")
        if orientation is None:
            oc = propagate_orientation(K)
            if oc is None:
                raise MalformedInput("$.orientation: missing and not derivable")
        else:
            oc = OrientedComplex(K, _ints(orientation, "$.orientation"))
        labels = obj.get("labels")
        if labels is not None:
            labels = _labels(labels)
        return oc, labels


def point_from_json(obj, path="$.point"):
    return _numvec(obj, path)


def rational_vector_json(v):
    return [rat_json(c) for c in v]
