"""Acceptance suite: one test per criterion, exact checks, stated budgets.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion.  Every numeric assertion is exact (rational arithmetic); the
budgets are wall-clock guards.
"""

import json
import random
import time
from importlib import resources

from helpers_fibered import sphere_complex
from fraccore import frac_core, gallery, tu_solver
from fraccore.formats import game_from_json
from fraccore.game_model import (
    CoalitionalNTUGame,
    ComprehensiveSet,
    FirmSystem,
    TUGame,
    coalitions,
    point_orthant,
    validate_game,
)
from fraccore.rationals import Q
from fraccore.topology.complexes import (
    barycentric_subdivision,
    propagate_orientation,
    simplex_boundary,
    validate_closed_manifold,
)
from fraccore.topology.degree import (
    BalancedSimplexFound,
    Degree,
    LabeledCover,
    SimplexRegion,
    closed_star_cover,
    induce_labeling,
    pl_degree,
    rainbow_simplices,
)
from fraccore.topology.hopf import first_homology, hopf_invariant
from fraccore.topology.index import index_sum_check
from fraccore.topology.s3_12 import load as load_sphere_asset


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds
        self.start = time.time()

    def done(self, message=""):
        elapsed = time.time() - self.start
        line = f"ACCEPTANCE {self.name} PASS ({elapsed:.2f}s / {self.seconds}s)"
        if message:
            line += f": {message}"
        print(line)
        assert elapsed < self.seconds, f"{self.name} exceeded its {self.seconds}s budget"


def test_criterion_01_worked_example_reproduction():
    b = Budget("1 worked TU example", 1)
    game = gallery.loss_sharing_tu()
    res = tu_solver.core_nonempty(game)
    assert isinstance(res, tu_solver.CorePoint)
    assert tu_solver.check_core_point(game, (-8, -12, -15)) == tu_solver.Accept()
    weak = gallery.loss_sharing_tu_modified()
    assert tu_solver.core_nonempty(weak) == tu_solver.Empty()
    violated = tu_solver.is_balanced_tu(weak)
    assert isinstance(violated, tu_solver.Violated)
    assert violated.family.subsets == ((0, 1), (0, 2), (1, 2))
    assert violated.family.weights == (Q(1, 2), Q(1, 2), Q(1, 2))
    halves = [w * weak.value(s) for s, w in zip(violated.family.subsets, violated.family.weights)]
    assert halves == [Q(-11), Q(-14), Q(-16)]
    assert violated.value == Q(-41)
    b.done("core point found; weakened game violated by the half-pair family")


def test_criterion_02_fractional_core_of_weakened_game():
    b = Budget("2 fractional core", 5)
    game = frac_core.embed_coalitional(gallery.loss_sharing_tu_modified())
    res = frac_core.fractional_core_solve(game)
    assert isinstance(res, frac_core.Nonempty)
    pairs = tuple(coalitions(3).index(c) for c in [(0, 1), (0, 2), (1, 2)])
    ok, info = frac_core.verify_fractional_core_point(
        game, (-9, -13, -19), active=pairs
    )
    assert ok, info
    ok2, _ = frac_core.verify_fractional_core_point(game, (-9, -13, -19))
    assert ok2
    b.done("worked part-time allocation verified for the pair family")


def test_criterion_03_directed_transfers_empty():
    b = Budget("3 directed-transfers game", 5)
    game = gallery.directed_transfers_game()
    assert validate_game(game).ok
    assert frac_core.fractional_core_solve(game) == frac_core.Empty()
    b.done("fractional core is empty")


def test_criterion_04_core_balancedness_suite():
    b = Budget("4 TU equivalence suite", 60)
    rng = random.Random(20260810)
    mismatches = 0
    for _ in range(1000):
        n = rng.randint(2, 4)
        values = {coal: rng.randint(-20, 20) for coal in coalitions(n)}
        game = TUGame(n, values)
        has_core = isinstance(tu_solver.core_nonempty(game), tu_solver.CorePoint)
        balanced = isinstance(tu_solver.is_balanced_tu(game), tu_solver.Balanced)
        if has_core != balanced:
            mismatches += 1
    assert mismatches == 0
    b.done("1000 games, zero core/balancedness mismatches")


def test_criterion_05_embedded_ntu_suite():
    b = Budget("5 embedded NTU suite", 120)
    rng = random.Random(555)
    for _ in range(200):
        sets = {}
        for coal in coalitions(3):
            p = [Q(rng.randint(-5, 5)) for _ in coal]
            sets[coal] = ComprehensiveSet((point_orthant(p),))
        ntu = CoalitionalNTUGame(3, sets)
        game = frac_core.embed_coalitional(ntu)
        res = frac_core.fractional_core_solve(game)
        assert isinstance(res, frac_core.Nonempty)
        ok, info = frac_core.verify_fractional_core_point(
            game, res.witness.point, active=res.witness.active
        )
        assert ok, info
    b.done("200 embedded games, fractional core always nonempty")


def _unit_firms(m):
    firms = [tuple(Q(1) if j == i else Q(0) for j in range(m)) for i in range(m)]
    return FirmSystem(firms=firms, resource=tuple(Q(1, m) for _ in range(m)))


def _sperner_complex(k, depth):
    oc = simplex_boundary(k + 1)
    carriers = [(v,) for v in range(k + 2)]
    for _ in range(depth):
        sub = barycentric_subdivision(oc)
        carriers = [
            tuple(sorted(set().union(*(carriers[v] for v in face))))
            for face in sub.carriers
        ]
        oc = sub.oriented
    return oc, carriers


def test_criterion_06_degree_one_law():
    b = Budget("6 carrier-constrained labelings", 30)
    rng = random.Random(606)
    plans = [(1, 1, 20), (1, 2, 20), (1, 3, 20), (2, 1, 20), (2, 2, 15), (2, 3, 5)]
    total = 0
    for k, depth, trials in plans:
        oc, carriers = _sperner_complex(k, depth)
        fs = _unit_firms(k + 2)
        for _ in range(trials):
            labels = [frozenset({rng.choice(c)}) for c in carriers]
            assert pl_degree(LabeledCover(oc, labels, fs)) == Degree(1)
            total += 1
    assert total == 100
    b.done("100 labelings across both sphere dimensions, all degree 1")


def test_criterion_07_embedded_cover_degree():
    b = Budget("7 embedded-cover degree", 30)
    game = frac_core.embed_coalitional(gallery.loss_sharing_tu())
    c = Q(60)
    third = Q(1, 3)
    region = SimplexRegion(
        tuple(
            tuple(-c * ((Q(1) if j == i else Q(0)) - third) for j in range(3))
            for i in range(3)
        )
    )
    lc = induce_labeling(game, region, 4)
    res = pl_degree(lc)
    assert res == Degree(1) or isinstance(res, BalancedSimplexFound)
    b.done(f"depth-4 boundary labeling: {res}")


def test_criterion_08_centrally_symmetric():
    b = Budget("8 centrally symmetric", 30)
    # circle: eight-vertex cycle labeled antipodally over two competitor pairs
    from fraccore.topology.complexes import OrientedComplex, SimplicialComplex

    fs1 = FirmSystem(firms=[(2, 1), (1, 2), (0, 1), (1, 0)], resource=(1, 1))
    K1 = SimplicialComplex(8, tuple((i, (i + 1) % 8) for i in range(8)))
    oc1 = OrientedComplex(K1, tuple(1 if i < (i + 1) % 8 else -1 for i in range(8)))
    pairing = {0: 2, 1: 3, 2: 0, 3: 1}
    labels1 = [frozenset({c}) for c in (0, 0, 1, 1, 2, 2, 3, 3)]
    for j in range(8):
        assert labels1[(j + 4) % 8] == frozenset(
            {pairing[min(labels1[j])]}
        ), "labeling is antipodally symmetric"
    res1 = pl_degree(LabeledCover(oc1, labels1, fs1))
    assert isinstance(res1, Degree) and res1.value != 0

    # sphere: octahedron labeled by its own axes over three competitor pairs
    fs2 = FirmSystem(
        firms=[(2, 1, 1), (0, 1, 1), (1, 2, 1), (1, 0, 1), (1, 1, 2), (1, 1, 0)],
        resource=(1, 1, 1),
    )
    octa = []
    for sx in (0, 1):
        for sy in (0, 1):
            for sz in (0, 1):
                octa.append(tuple(sorted((sx, 2 + sy, 4 + sz))))
    K2 = SimplicialComplex(6, tuple(octa))
    oc2 = propagate_orientation(K2)
    labels2 = [frozenset({v}) for v in range(6)]
    for v in range(6):
        antipode = v ^ 1
        assert labels2[antipode] == frozenset({min(labels2[v]) ^ 1})
    res2 = pl_degree(LabeledCover(oc2, labels2, fs2))
    assert isinstance(res2, Degree) and res2.value != 0

    for game in (gallery.symmetric_pairs_game_s1(), gallery.symmetric_pairs_game_s2()):
        res = frac_core.fractional_core_solve(game)
        assert isinstance(res, frac_core.Nonempty)
    b.done(f"degrees {res1.value} and {res2.value}; matching games nonempty")


def test_criterion_09_index_sum():
    b = Budget("9 index sum", 30)
    outcomes = {}
    for pair, expected_boundary in (((1, 1), 2), ((1, -1), 0), ((-1, -1), -2)):
        lc = gallery.two_bubble_cover(*pair)
        rep = index_sum_check(lc)
        assert rep.boundary_degree == Degree(expected_boundary)
        assert [ix for _, ix in rep.components] == list(pair)
        assert rep.sum_matches
        outcomes[pair] = expected_boundary
    b.done(f"boundary degrees {outcomes}")


def _random_firm_system(rng):
    while True:
        firms = []
        for _ in range(5):
            v = tuple(Q(rng.randint(-3, 5)) for _ in range(3))
            firms.append(v)
        weights = [Q(rng.randint(1, 3)) for _ in range(5)]
        total = sum(weights, Q(0))
        r = tuple(
            sum((w * v[k] for w, v in zip(weights, firms)), Q(0)) / total
            for k in range(3)
        )
        diffs = [[v[k] - r[k] for k in range(3)] for v in firms]
        from fraccore.linalg import rank

        if rank(diffs) == 3 and any(c != 0 for c in r):
            return FirmSystem(firms=firms, resource=r)


def _transformed(fs, rng):
    perm = list(range(5))
    rng.shuffle(perm)
    scale = Q(rng.randint(1, 5), rng.randint(1, 5))
    shifts = [Q(rng.randint(-3, 3)) for _ in range(3)]
    mats = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
        [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 0, 0], [1, 1, 0], [1, 0, 1]],
    ]
    mat = mats[rng.randrange(len(mats))]

    def apply(v):
        rotated = tuple(
            sum(Q(mat[r][c]) * v[c] for c in range(3)) for r in range(3)
        )
        return tuple(scale * x + s for x, s in zip(rotated, shifts))

    firms = [None] * 5
    for new, old in enumerate(perm):
        firms[new] = apply(fs.firms[old])
    return FirmSystem(firms=firms, resource=apply(fs.resource)), perm


def test_criterion_10_balanced_invariance():
    b = Budget("10 balanced invariance", 60)
    rng = random.Random(1010)
    oc = barycentric_subdivision(simplex_boundary(3)).oriented
    nv = oc.complex.num_vertices
    for _ in range(50):
        fs = _random_firm_system(rng)
        fs2, perm = _transformed(fs, rng)
        labels = [frozenset({rng.randrange(5)}) for _ in range(nv)]
        labels2 = [frozenset({perm.index(min(ls))}) for ls in labels]
        r1 = pl_degree(LabeledCover(oc, labels, fs))
        r2 = pl_degree(LabeledCover(oc, labels2, fs2))
        if isinstance(r1, BalancedSimplexFound):
            assert isinstance(r2, BalancedSimplexFound)
        else:
            assert isinstance(r2, Degree)
            assert abs(r1.value) == abs(r2.value)
    b.done("50 instances, |degree| stable under equivalent firm systems")


def test_criterion_11_hopf_example():
    b = Budget("11 sphere asset", 120)
    oc, coloring = load_sphere_asset()
    rep = validate_closed_manifold(oc.complex)
    assert rep.closed and rep.connected and rep.orientable
    assert rep.euler == 0 and rep.links_ok
    assert first_homology(oc.complex) == (0, [])
    fs = FirmSystem(
        firms=[(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
        resource=(1, 1, 1, 1),
    )
    cover = closed_star_cover(oc, coloring, fs)
    rainbow = rainbow_simplices(cover, "cone")
    assert rainbow, "closed-star cover must have a fully balanced simplex"
    invariant = hopf_invariant(oc, coloring)
    assert abs(invariant) == 1
    # independent mirrored construction flips nothing essential
    K2, coloring2 = sphere_complex(flip=True)
    oc2 = propagate_orientation(K2)
    assert abs(hopf_invariant(oc2, coloring2)) == 1
    game = gallery.hopf_fibration_game()
    # `fraccore examples hopf` reads the shipped copy of this game
    shipped = resources.files("fraccore").joinpath("data/hopf-game.json").read_text()
    assert game_from_json(json.loads(shipped)) == game
    assert validate_game(game).ok
    res = frac_core.fractional_core_solve(game)
    assert isinstance(res, frac_core.Nonempty)
    ok, info = frac_core.verify_fractional_core_point(
        game, res.witness.point, active=res.witness.active
    )
    assert ok, info
    b.done(
        f"invariant {invariant}, {len(rainbow)} rainbow facets, game core nonempty"
    )
