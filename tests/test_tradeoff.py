import csv
import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    all_valid_tuples,
    brute_force_compositions,
    reference_halfplanes,
    reference_min_gamma_given_alpha,
    sample_tuples,
)
from rackcoop import params, tradeoff
from rackcoop.tradeoff import (
    GammaSolution,
    InfeasibleAlphaError,
    bound_rhs,
    compositions,
    feasible,
    max_file_size,
    min_gamma_given_alpha,
)


@pytest.fixture(scope="module")
def p():
    return params.validate(8, 4, 2, 4, 2, 2)


# ---------------------------------------------------------------------------
# composition enumeration
# ---------------------------------------------------------------------------

def test_compositions_m2_f2():
    assert compositions(2, 2) == [(2,), (1, 1)]


def test_compositions_m3_f2():
    assert compositions(3, 2) == [(2, 1), (1, 2), (1, 1, 1)]


def test_composition_counts_match_oracle():
    for m, f in [(2, 2), (3, 2), (4, 2), (4, 4), (6, 3), (5, 5), (6, 1)]:
        got = compositions(m, f)
        want = brute_force_compositions(m, f)
        assert len(got) == len(want)
        assert sorted(got) == sorted(tuple(u) for u in want)


def test_compositions_closed_under_splitting():
    """Splitting any part of an enumerated composition yields another
    enumerated composition, so no refinement is ever missed by the minimum."""
    for m, f in [(4, 2), (6, 3), (5, 4)]:
        everything = set(compositions(m, f))
        for u in everything:
            for i, part in enumerate(u):
                for a in range(1, part):
                    split = u[:i] + (a, part - a) + u[i + 1 :]
                    assert split in everything


# ---------------------------------------------------------------------------
# bound evaluation: frozen hand values
# ---------------------------------------------------------------------------

def test_bound_rhs_hand_values(p):
    # k*alpha = 20; composition (2): 20 + 2*min(0, 2*2 - 5 + 0) = 18
    assert bound_rhs(p, 5, 2, 1, (2,)) == 18
    # composition (1,1): 20 + min(0, 4-5+1) + min(0, 2-5+1) = 18
    assert bound_rhs(p, 5, 2, 1, (1, 1)) == 18


def test_bound_rhs_clamps_at_k_alpha(p):
    assert bound_rhs(p, 5, 10**6, 10**6, (2,)) == 20
    assert bound_rhs(p, 5, 10**6, 10**6, (1, 1)) == 20


def test_max_file_size_construction_point(p):
    got = max_file_size(p, 5, 2, 1)
    assert got.value == 18
    assert set(got.minimizers) == {(2,), (1, 1)}


def test_max_file_size_msrcr_point(p):
    assert max_file_size(p, Fr(9, 2), Fr(9, 4), Fr(9, 4)).value == 18


def test_max_file_size_alpha_scaled(p):
    # alpha scaled by 6/5 with betas fixed: clamps go negative, value = 20 < k*alpha = 24
    got = max_file_size(p, 6, 2, 1)
    assert got.value == 20
    assert got.value < p.k * 6


def test_feasible(p):
    assert feasible(p, 18, 5, 2, 1)
    assert not feasible(p, 19, 5, 2, 1)
    assert feasible(p, 0, 5, 2, 1)


def test_bound_permutation_invariant_when_clamped(p):
    big = 10**9
    values = {bound_rhs(p, 5, big, big, u) for u in compositions(p.m, p.f)}
    assert values == {Fr(20)}


# ---------------------------------------------------------------------------
# corner feasibility over random tuples
# ---------------------------------------------------------------------------

def test_corner_points_exactly_feasible():
    rng = random.Random(41)
    for p_ in sample_tuples(rng, 60):
        b = Fr(rng.randint(2, 300), rng.randint(1, 5))
        for pt in (params.msrcr_point(p_, b), params.mbrcr_point(p_, b)):
            assert max_file_size(p_, pt.alpha, pt.beta1, pt.beta2).value == b


def test_below_corner_points_infeasible():
    """Shrinking gamma at minimum storage, or alpha at minimum bandwidth,
    breaks feasibility (for tuples where the corner is nondegenerate)."""
    rng = random.Random(42)
    eps = Fr(999, 1000)
    pool = sample_tuples(
        rng, 40, predicate=lambda q: q.k > q.m * q.failures_per_rack
    )
    for p_ in pool:
        b = Fr(rng.randint(2, 300), rng.randint(1, 5))
        ms = params.msrcr_point(p_, b)
        assert not feasible(p_, b, ms.alpha, ms.beta1 * eps, ms.beta2 * eps)
        mb = params.mbrcr_point(p_, b)
        assert not feasible(p_, b, mb.alpha * eps, mb.beta1, mb.beta2)


# ---------------------------------------------------------------------------
# the minimum-gamma linear program
# ---------------------------------------------------------------------------

def test_min_gamma_recovers_mbrcr_corner(p):
    sol = min_gamma_given_alpha(p, 18, 5)
    assert sol == (Fr(5), Fr(2), Fr(1))


def test_min_gamma_recovers_msrcr_corner(p):
    sol = min_gamma_given_alpha(p, 18, Fr(9, 2))
    assert sol.gamma == Fr(27, 4)


def test_min_gamma_monotone_between_corners(p):
    prev = None
    for i in range(11):
        alpha = Fr(9, 2) + Fr(i, 10) * Fr(1, 2)
        g = min_gamma_given_alpha(p, 18, alpha).gamma
        if prev is not None:
            assert g <= prev
        prev = g


def test_min_gamma_alpha_below_minimum(p):
    with pytest.raises(InfeasibleAlphaError):
        min_gamma_given_alpha(p, 18, Fr(17, 4))


def test_min_gamma_output_feasible_and_tight():
    """The solution is feasible, and shaving alpha by alpha/1000 at the
    returned betas breaks it."""
    rng = random.Random(43)
    pool = sample_tuples(
        rng, 8,
        predicate=lambda q: q.m <= 4 and q.failures_per_rack < q.nodes_per_rack,
    )
    for p_ in pool:
        lay = params.construction_params(p_)
        b = Fr(lay.file_size)
        for alpha in (params.msrcr_point(p_, b).alpha * Fr(21, 20), Fr(lay.alpha)):
            sol = min_gamma_given_alpha(p_, b, alpha)
            assert feasible(p_, b, alpha, sol.beta1, sol.beta2)
            shaved = alpha * Fr(999, 1000)
            assert not feasible(p_, b, shaved, sol.beta1, sol.beta2)


def test_min_gamma_corner_identities_random():
    rng = random.Random(44)
    for p_ in sample_tuples(rng, 10, predicate=lambda q: q.m <= 4):
        b = Fr(rng.randint(5, 100))
        ms = params.msrcr_point(p_, b)
        mb = params.mbrcr_point(p_, b)
        assert min_gamma_given_alpha(p_, b, ms.alpha).gamma == ms.gamma
        assert min_gamma_given_alpha(p_, b, mb.alpha).gamma == mb.gamma


@st.composite
def _lp_cases(draw):
    """An m <= 4 tuple, a fractional file size, and alpha at a corner, at
    three times the minimum-bandwidth alpha, or at a rational in between."""
    p_ = sample_tuples(draw(st.randoms(use_true_random=False)), 1,
                       predicate=lambda q: q.m <= 4)[0]
    b = Fr(draw(st.integers(1, 500)), draw(st.integers(1, 9)))
    lo = params.msrcr_point(p_, b).alpha
    hi = params.mbrcr_point(p_, b).alpha
    alpha = draw(st.one_of(
        st.sampled_from([lo, hi, 3 * hi]),
        st.fractions(0, 1, max_denominator=1000).map(lambda s: lo + s * (hi - lo)),
    ))
    return p_, b, alpha


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_lp_cases())
def test_min_gamma_matches_vertex_enumeration(case):
    """The frontier walk returns exactly the reference's solution, including
    its tie-break: the lexicographically smallest optimal (beta1, beta2)."""
    p_, b, alpha = case
    assert min_gamma_given_alpha(p_, b, alpha) == reference_min_gamma_given_alpha(p_, b, alpha)


# Solutions of the vertex-enumeration reference at m = 6, where it takes
# seconds per point: alpha at 1/4, 1/2 and 3/4 of the way between the
# corners, with B from the construction.
PINNED_M6 = [
    ((24, 12, 6, 12, 2, 2), 126, Fr(89, 8), (Fr(767, 32), Fr(59, 16), Fr(59, 32))),
    ((24, 12, 6, 12, 2, 2), 126, Fr(47, 4), (Fr(351, 20), Fr(27, 10), Fr(27, 20))),
    ((24, 12, 6, 12, 2, 2), 126, Fr(99, 8), (Fr(117, 8), Fr(9, 4), Fr(9, 8))),
    ((24, 12, 8, 12, 3, 3), 186, Fr(129, 8), (Fr(99, 4), Fr(109, 40), Fr(59, 40))),
    ((24, 12, 8, 12, 3, 3), 186, Fr(67, 4), (Fr(234, 11), Fr(26, 11), Fr(13, 11))),
    ((24, 12, 8, 12, 3, 3), 186, Fr(139, 8), (Fr(309, 16), Fr(103, 48), Fr(103, 96))),
]


@pytest.mark.parametrize("tup, b, alpha, want", PINNED_M6)
def test_min_gamma_pinned_m6(tup, b, alpha, want):
    p_ = params.validate(*tup)
    assert params.construction_params(p_).file_size == b
    assert min_gamma_given_alpha(p_, b, alpha) == GammaSolution(*want)


def test_min_gamma_curves_m_at_least_5():
    """Every m >= 5 tuple of the box: exact corners, a non-increasing convex
    curve, and a bound that is tight at every interior point."""
    pool = [q for q in all_valid_tuples(24, 8) if q.m >= 5]
    assert len(pool) == 170
    for p_ in pool:
        b = Fr(params.construction_params(p_).file_size)
        ms, mb = params.msrcr_point(p_, b), params.mbrcr_point(p_, b)
        assert min_gamma_given_alpha(p_, b, ms.alpha).gamma == ms.gamma
        assert min_gamma_given_alpha(p_, b, mb.alpha).gamma == mb.gamma
        points = tradeoff.sweep_curve(p_, b, 8)
        slopes = [(q.gamma - pt.gamma) / (q.alpha - pt.alpha)
                  for pt, q in zip(points, points[1:])]
        assert all(s <= 0 for s in slopes), p_
        assert slopes == sorted(slopes), p_
        for pt in points[1:-1]:
            assert max_file_size(p_, pt.alpha, pt.beta1, pt.beta2).value == b, p_


# ---------------------------------------------------------------------------
# curve export
# ---------------------------------------------------------------------------

def test_sweep_curve_and_csv(tmp_path, p):
    points = tradeoff.sweep_curve(p, 18, 4)
    assert len(points) == 5
    assert points[0].role == "MSRCR" and points[-1].role == "MBRCR"
    gammas = [pt.gamma for pt in points]
    assert gammas == sorted(gammas, reverse=True)
    out = tmp_path / "curve.csv"
    tradeoff.write_curve_csv(points, out)
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["alpha_num", "alpha_den", "gamma_num", "gamma_den", "role"]
    assert rows[1] == ["9", "2", "27", "4", "MSRCR"]
    assert rows[-1] == ["5", "1", "5", "1", "MBRCR"]


def test_halfplanes_match_subset_enumeration():
    """The prefix-sum DP keeps exactly the Pareto-minimal triples, in the same
    order, as enumerating every subset of every composition."""
    for m in range(1, 11):
        for f in range(1, m + 1):
            for d in range(m, m + 6):
                assert tradeoff._halfplanes(m, f, d) == reference_halfplanes(m, f, d), (m, f, d)
