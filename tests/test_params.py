import random
from fractions import Fraction as Fr

import pytest

from helpers import all_valid_tuples, sample_tuples
from rackcoop import params
from rackcoop.params import (
    ParameterError,
    RepairPatternError,
    RepairStage,
    construction_params,
    mbrcr_point,
    msrcr_point,
    validate,
)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_base_tuple():
    p = validate(8, 4, 2, 4, 2, 2)
    assert (p.m, p.nodes_per_rack, p.failures_per_rack) == (2, 2, 1)


def test_validate_d_too_large():
    with pytest.raises(ParameterError) as exc:
        validate(8, 4, 3, 4, 2, 2)
    assert any("r - f" in v for v in exc.value.violations)


def test_validate_rack_divisibility():
    with pytest.raises(ParameterError) as exc:
        validate(9, 4, 2, 4, 2, 2)
    assert any("divide n" in v for v in exc.value.violations)


def test_validate_reports_all_violations():
    with pytest.raises(ParameterError) as exc:
        validate(9, 4, 5, 4, 3, 2)
    text = exc.value.violations
    assert len(text) >= 3  # r|n, f|e, d<=r-f all broken
    assert any("divide n" in v for v in text)
    assert any("divide e" in v for v in text)


def test_validate_f_divides_m():
    # m = 3 with f = 2
    with pytest.raises(ParameterError) as exc:
        validate(12, 6, 3, 6, 2, 2)
    assert any("divide m" in v for v in exc.value.violations)


def test_validate_nonpositive():
    with pytest.raises(ParameterError):
        validate(8, 0, 2, 4, 2, 2)


# ---------------------------------------------------------------------------
# corner points: frozen hand values
# ---------------------------------------------------------------------------

def test_msrcr_base_values():
    p = validate(8, 4, 2, 4, 2, 2)
    pt = msrcr_point(p, 18)
    assert (pt.alpha, pt.beta1, pt.beta2, pt.gamma) == (Fr(9, 2), Fr(9, 4), Fr(9, 4), Fr(27, 4))
    assert pt.role == "MSRCR"


def test_mbrcr_base_values():
    p = validate(8, 4, 2, 4, 2, 2)
    pt = mbrcr_point(p, 18)
    assert (pt.alpha, pt.beta1, pt.beta2, pt.gamma) == (5, 2, 1, 5)
    assert pt.role == "MBRCR"


def test_construction_base_values():
    p = validate(8, 4, 2, 4, 2, 2)
    lay = construction_params(p)
    assert (lay.alpha, lay.beta1, lay.beta2, lay.gamma, lay.file_size, lay.n_global) == (
        5, 2, 1, 5, 18, 28)
    pt = mbrcr_point(p, lay.file_size)  # the construction sits on the MBRCR corner
    assert (lay.alpha, lay.beta1, lay.beta2, lay.gamma) == (pt.alpha, pt.beta1, pt.beta2, pt.gamma)


def test_file_size_must_be_positive():
    p = validate(8, 4, 2, 4, 2, 2)
    for b in (0, -3):
        with pytest.raises(ValueError):
            msrcr_point(p, b)
        with pytest.raises(ValueError):
            mbrcr_point(p, b)


# ---------------------------------------------------------------------------
# reductions to the flat (single-rack / single-failure) corner formulas
# ---------------------------------------------------------------------------

def test_mscr_reduction():
    """n=r, e=f: the minimum-storage gamma is B(d+e-1)/(k(d+e-k))."""
    p = validate(6, 4, 4, 6, 2, 2)
    for b in (Fr(16), Fr(18), Fr(7, 3)):
        pt = msrcr_point(p, b)
        assert pt.gamma == b * (p.d + p.e - 1) / (p.k * (p.d + p.e - p.k))
        assert pt.gamma == Fr(5, 8) * b  # d=4, e=2, k=4


def test_mbcr_reduction():
    """n=r, e=f: alpha = gamma = B(2d+e-1)/(k(2d+e-k))."""
    for p in (validate(6, 4, 4, 6, 2, 2), validate(8, 4, 4, 8, 4, 4)):
        for b in (Fr(20), Fr(33, 2)):
            pt = mbrcr_point(p, b)
            want = b * (2 * p.d + p.e - 1) / (p.k * (2 * p.d + p.e - p.k))
            assert pt.alpha == pt.gamma == want


def test_single_failure_reductions():
    """e=f=1: the corner points collapse to the single-failure rack formulas."""
    rng = random.Random(21)
    pool = sample_tuples(rng, 12, predicate=lambda p: p.e == 1 and p.f == 1)
    for p in pool:
        b = Fr(rng.randint(5, 200), rng.randint(1, 4))
        ms = msrcr_point(p, b)
        assert ms.alpha == b / p.k
        assert ms.gamma == b * p.d / (p.k * (p.d - p.m + 1))
        mb = mbrcr_point(p, b)
        want = b * p.d / ((p.k - p.m) * p.d + p.m * (p.d - Fr(p.m - 1, 2)))
        assert mb.alpha == mb.gamma == want


# ---------------------------------------------------------------------------
# construction identities over random tuples
# ---------------------------------------------------------------------------

def test_construction_file_size_forms_agree():
    """k(2d+f-1) + (e/f)(m - m^2) equals the split form for 200 random tuples."""
    rng = random.Random(31)
    for p in sample_tuples(rng, 200):
        lay = construction_params(p)
        epf = p.failures_per_rack
        split = (p.k - p.m * epf) * lay.alpha + epf * p.m * (2 * p.d + p.f - p.m)
        assert lay.file_size == split


def test_mbrcr_point_reproduces_construction():
    rng = random.Random(32)
    for p in sample_tuples(rng, 200):
        lay = construction_params(p)
        pt = mbrcr_point(p, lay.file_size)
        assert (pt.alpha, pt.beta1, pt.beta2) == (lay.alpha, lay.beta1, lay.beta2)


def test_corner_ordering_and_structure():
    rng = random.Random(33)
    for p in sample_tuples(rng, 100):
        b = Fr(rng.randint(1, 500), rng.randint(1, 6))
        ms = msrcr_point(p, b)
        mb = mbrcr_point(p, b)
        assert ms.alpha <= mb.alpha
        assert mb.gamma <= ms.gamma
        assert ms.beta1 == ms.beta2
        assert mb.beta1 == 2 * mb.beta2
        assert mb.alpha == Fr(p.f, p.e) * mb.gamma
        assert ms.gamma == Fr(p.e, p.f) * ms.alpha + (p.m - 1) * ms.beta1


def test_enumeration_is_desk_scale():
    assert len(all_valid_tuples()) >= 50


# ---------------------------------------------------------------------------
# repair stages
# ---------------------------------------------------------------------------

def test_repair_stage_validate():
    p = validate(8, 4, 2, 4, 2, 2)
    ok = RepairStage.make({1: (1,), 2: (2,)}, (3, 4))
    assert ok.validate(p) is ok
    bad = [
        ({1: (1,)}, (3, 4), "exactly 2 distinct racks"),
        (((1, (1,)), (1, (2,))), (3, 4), "exactly 2 distinct racks"),
        ({1: (1,), 9: (1,)}, (3, 4), "rack 9 out of range"),
        ({1: (1, 1), 2: (1,)}, (3, 4), "distinct nodes"),
        ({1: (3,), 2: (1,)}, (3, 4), "node index out of range"),
        ({1: (1,), 2: (1,)}, (3, 3), "helper racks"),
        ({1: (1,), 2: (1,)}, (3, 9), "helper rack out of range"),
        ({1: (1,), 2: (1,)}, (2, 3), "disjoint"),
    ]
    for failed, helpers, match in bad:
        with pytest.raises(RepairPatternError, match=match):
            RepairStage.make(failed, helpers).validate(p)
