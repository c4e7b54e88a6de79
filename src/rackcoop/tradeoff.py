"""File-size bound over rack-collection compositions, and derived curves.

The supported file size at an operating point (alpha, beta1, beta2) is the
minimum, over all ordered compositions u of m into parts <= f, of

    k*alpha + sum_i u_i * min(0, (d - prefix_i)*beta1 - (e/f)*alpha + (f - u_i)*beta2)

where prefix_i = u_1 + ... + u_{i-1}.  Everything here is exact rational
arithmetic.  The minimum-bandwidth curve comes from a 2-variable linear
program in (beta1, beta2): its constraints are the bound's Pareto-minimal
half-planes, which depend only on (m, f, d) and are cached, and it is solved
by walking the lower boundary of the feasible set from breakpoint to
breakpoint until gamma stops falling.
"""

from __future__ import annotations

import csv
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .params import CodeParams, TradeoffPoint, ROLE_CUSTOM, gamma_of

Composition = tuple[int, ...]


class InfeasibleAlphaError(ValueError):
    pass


def compositions(m: int, f: int) -> list[Composition]:
    """All ordered compositions of m into parts between 1 and f."""
    if m < 1 or f < 1:
        raise ValueError(f"need m >= 1 and f >= 1, got m={m}, f={f}")
    out: list[Composition] = []

    def extend(prefix: tuple[int, ...], remaining: int) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(f, remaining), 0, -1):
            extend(prefix + (part,), remaining - part)

    extend((), m)
    return out


def bound_rhs(p: CodeParams, alpha, beta1, beta2, u) -> Fraction:
    """Right-hand side of the file-size bound for one composition."""
    alpha, beta1, beta2 = Fraction(alpha), Fraction(beta1), Fraction(beta2)
    epf = Fraction(p.e, p.f)
    total = p.k * alpha
    prefix = 0
    for part in u:
        term = (p.d - prefix) * beta1 - epf * alpha + (p.f - part) * beta2
        total += part * min(Fraction(0), term)
        prefix += part
    return total


class FileSizeBound(NamedTuple):
    value: Fraction
    minimizers: tuple[Composition, ...]


def max_file_size(p: CodeParams, alpha, beta1, beta2) -> FileSizeBound:
    """Largest file size the bound supports, with the minimizing compositions."""
    best: Fraction | None = None
    argmin: list[Composition] = []
    for u in compositions(p.m, p.f):
        v = bound_rhs(p, alpha, beta1, beta2, u)
        if best is None or v < best:
            best, argmin = v, [u]
        elif v == best:
            argmin.append(u)
    assert best is not None
    return FileSizeBound(best, tuple(argmin))


def feasible(p: CodeParams, file_size, alpha, beta1, beta2) -> bool:
    return Fraction(file_size) <= max_file_size(p, alpha, beta1, beta2).value


class GammaSolution(NamedTuple):
    gamma: Fraction
    beta1: Fraction
    beta2: Fraction


@cache
def _halfplanes(m: int, f: int, d: int) -> tuple[tuple[int, int, int], ...]:
    """Pareto-minimal half-planes ``a*beta1 + c*beta2 >= (B - k*alpha) + (e/f)*alpha*w``.

    The clamp ``min(0, .)`` makes the bound for a composition u the minimum,
    over subsets S of its positions, of the unclamped sum over S, so each
    composition and nonempty S give one triple: a = sum u_i*(d - prefix_i),
    c = sum u_i*(f - u_i) and w = sum u_i over S.  A triple is dropped when
    another has a' <= a, c' <= c and w' >= w, because with beta >= 0 and
    (e/f)*alpha > 0 that one implies it; what is left depends on neither
    alpha nor the file size.

    The sums run along prefix sums 0..m: from prefix s the next part u <= f
    adds (u*(d - s), u*(f - u), u) to a sum or is left out of S.  A completion
    adds the same to every sum at a prefix, so each prefix keeps only the sums
    no other implies.
    """
    sums = [{(0, 0, 0)}] + [set() for _ in range(m)]
    for s in range(m + 1):
        # In this order every triple comes after the ones that imply it, and
        # implication is transitive, so comparing with the kept ones suffices.
        kept: list[tuple[int, int, int]] = []
        for a, c, w in sorted(sums[s], key=lambda t: (t[0], t[1], -t[2])):
            if not any(c2 <= c and w2 >= w for _, c2, w2 in kept):
                kept.append((a, c, w))
        for part in range(1, min(f, m - s) + 1):
            sums[s + part].update(kept)
            sums[s + part].update((a + part * (d - s), c + part * (f - part), w + part)
                                  for a, c, w in kept)
    return tuple(kept[1:])  # kept[0] is (0, 0, 0), from the empty S


def min_gamma_given_alpha(p: CodeParams, file_size, alpha) -> GammaSolution:
    """Minimize d*beta1 + (f-1)*beta2 subject to the bound supporting ``file_size``.

    The feasible set is the intersection of the half-planes of
    ``_halfplanes`` with the nonnegative quadrant.  Every a is positive
    (d >= m) and every c nonnegative, so the set is upward-closed: its lower
    boundary is beta2 = h(beta1) = max(0, max over c > 0 of (r - a*beta1)/c)
    for beta1 at least the largest r/a over c = 0 (and 0).  Gamma along that
    boundary is convex, so the walk starts at its left end and steps from
    breakpoint to breakpoint while gamma still falls to the right
    (Megiddo-style two-variable LP).  It returns the first vertex where it
    stops falling: the minimal gamma with the smallest beta1, hence the
    lexicographically smallest optimal (beta1, beta2).  Exact throughout.
    """
    file_size = Fraction(file_size)
    alpha = Fraction(alpha)
    if file_size <= 0:
        raise ValueError("file size must be positive")
    if alpha < Fraction(file_size, p.k):
        raise InfeasibleAlphaError(
            f"alpha = {alpha} below the minimum B/k = {Fraction(file_size, p.k)}"
        )
    base = file_size - p.k * alpha
    unit = Fraction(p.e, p.f) * alpha
    x = Fraction(0)
    lines = []  # (a, c, r) with c > 0: beta2 >= (r - a*beta1)/c
    for a, c, w in _halfplanes(p.m, p.f, p.d):
        r = base + unit * w
        if c:
            lines.append((a, c, r))
        else:
            x = max(x, r / a)
    while True:
        heights = [((r - a * x) / c, a, c, r) for a, c, r in lines]
        y = max([Fraction(0)] + [t[0] for t in heights])
        if y == 0:
            break  # h = 0 from here on, where gamma rises with slope d
        # the least steep of the lines through (x, y) is the piece to the right
        _, a, c, r = min((t for t in heights if t[0] == y),
                         key=lambda t: Fraction(t[1], t[2]))
        if p.d * c >= (p.f - 1) * a:  # gamma's slope d - (f-1)*a/c is >= 0
            break
        # next breakpoint: h reaches 0, or a less steep line overtakes
        nxt = r / a
        for a2, c2, r2 in lines:
            if a2 * c < a * c2:
                nxt = min(nxt, (r * c2 - r2 * c) / (a * c2 - a2 * c))
        x = nxt
    return GammaSolution(gamma_of(p, x, y), x, y)


def sweep_curve(p: CodeParams, file_size, steps: int) -> list[TradeoffPoint]:
    """Tradeoff curve from the minimum-storage to the minimum-bandwidth corner.

    Returns ``steps + 1`` points with exact rational coordinates; the two
    endpoints are tagged with their corner roles.
    """
    from .params import msrcr_point, mbrcr_point

    if steps < 1:
        raise ValueError("steps must be >= 1")
    b = Fraction(file_size)
    lo = msrcr_point(p, b)
    hi = mbrcr_point(p, b)
    points = []
    for i in range(steps + 1):
        alpha = lo.alpha + Fraction(i, steps) * (hi.alpha - lo.alpha)
        if alpha == lo.alpha:
            points.append(lo)
        elif alpha == hi.alpha:
            points.append(hi)
        else:
            sol = min_gamma_given_alpha(p, b, alpha)
            points.append(TradeoffPoint(
                alpha=alpha, beta1=sol.beta1, beta2=sol.beta2,
                gamma=sol.gamma, file_size=b, role=ROLE_CUSTOM,
            ))
    return points


def write_curve_csv(points, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha_num", "alpha_den", "gamma_num", "gamma_den", "role"])
        for pt in points:
            writer.writerow([
                pt.alpha.numerator, pt.alpha.denominator,
                pt.gamma.numerator, pt.gamma.denominator,
                pt.role,
            ])
