"""Code parameter validation and the corner points of the storage/bandwidth tradeoff.

All tradeoff arithmetic is exact (``fractions.Fraction``); the corner-point
identities in the test suite are asserted with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

ROLE_MSRCR = "MSRCR"
ROLE_MBRCR = "MBRCR"
ROLE_CUSTOM = "custom"


class ParameterError(ValueError):
    """Raised by :func:`validate`; ``violations`` lists every failed constraint."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class CodeParams:
    """Validated (n, k, d, r, e, f) tuple with derived quantities.

    n nodes are spread over r racks (n/r per rack); any k nodes recover the
    file; e nodes fail across f racks (e/f per rack) and are repaired with
    help from d other racks.  m = floor(kr/n).
    """

    n: int
    k: int
    d: int
    r: int
    e: int
    f: int
    m: int
    nodes_per_rack: int
    failures_per_rack: int

    def as_tuple(self):
        return (self.n, self.k, self.d, self.r, self.e, self.f)

    def node_ids(self) -> list[tuple[int, int]]:
        """Every 1-based (rack, node) id, in generator row order."""
        return [(rack, node) for rack in range(1, self.r + 1)
                for node in range(1, self.nodes_per_rack + 1)]

    def row(self, rack: int, node: int) -> int:
        """Index of (rack, node) in :meth:`node_ids`; ``KeyError`` outside the cluster."""
        if not (1 <= rack <= self.r and 1 <= node <= self.nodes_per_rack):
            raise KeyError(f"node ({rack}, {node}) out of range")
        return (rack - 1) * self.nodes_per_rack + node - 1


def validate(n: int, k: int, d: int, r: int, e: int, f: int) -> CodeParams:
    """Check every model constraint, reporting all violations at once."""
    violations = []
    for name, v in (("n", n), ("k", k), ("d", d), ("r", r), ("e", e), ("f", f)):
        if not isinstance(v, int) or v < 1:
            violations.append(f"{name} must be a positive integer, got {v!r}")
    if violations:
        raise ParameterError(violations)

    if n % r != 0:
        violations.append(f"r must divide n ({r} does not divide {n})")
    if e % f != 0:
        violations.append(f"f must divide e ({f} does not divide {e})")
    if not 1 <= k <= n:
        violations.append(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    if not 1 <= f <= r:
        violations.append(f"f must satisfy 1 <= f <= r, got f={f}, r={r}")

    m = (k * r) // n
    if m < 1:
        violations.append(f"m = floor(kr/n) must be >= 1, got {m}")
    if m >= 1 and m % f != 0:
        violations.append(f"f must divide m = floor(kr/n) ({f} does not divide {m})")
    if d < m:
        violations.append(f"d must be >= m = floor(kr/n) ({d} < {m})")
    if d > r - f:
        violations.append(f"d must be <= r - f ({d} > {r - f})")
    if n % r == 0 and e % f == 0 and e // f > n // r:
        violations.append(
            f"per-rack failures e/f must be <= nodes per rack n/r ({e // f} > {n // r})"
        )

    if violations:
        raise ParameterError(violations)
    return CodeParams(
        n=n, k=k, d=d, r=r, e=e, f=f,
        m=m, nodes_per_rack=n // r, failures_per_rack=e // f,
    )


class RepairPatternError(ValueError):
    """A repair stage that does not fit the failure model."""


@dataclass(frozen=True)
class RepairStage:
    """One repair round: ``failed`` maps each rack of the group to the e/f
    node indices replaced in it; ``helpers`` are the d assisting racks."""

    failed: tuple[tuple[int, tuple[int, ...]], ...]
    helpers: tuple[int, ...]

    @classmethod
    def make(cls, failed, helpers) -> "RepairStage":
        items = failed.items() if isinstance(failed, dict) else failed
        norm = tuple(sorted((int(rack), tuple(sorted(int(i) for i in idxs)))
                            for rack, idxs in items))
        return cls(failed=norm, helpers=tuple(sorted(int(h) for h in helpers)))

    @classmethod
    def random(cls, p: CodeParams, rng) -> "RepairStage":
        """Seeded stage: draws the failed racks, then the helpers, then each
        failed rack's nodes."""
        racks = rng.sample(range(1, p.r + 1), p.f)
        helpers = rng.sample([h for h in range(1, p.r + 1) if h not in racks], p.d)
        failed = {
            rack: rng.sample(range(1, p.nodes_per_rack + 1), p.failures_per_rack)
            for rack in racks
        }
        return cls.make(failed, helpers)

    @property
    def racks(self) -> tuple[int, ...]:
        return tuple(rack for rack, _ in self.failed)

    def validate(self, p: CodeParams) -> "RepairStage":
        """Check the stage against ``p``; raises ``RepairPatternError``."""
        if not _distinct(self.racks, p.f):
            raise RepairPatternError(f"need failures in exactly {p.f} distinct racks")
        for rack, idxs in self.failed:
            if not 1 <= rack <= p.r:
                raise RepairPatternError(f"rack {rack} out of range")
            if not _distinct(idxs, p.failures_per_rack):
                raise RepairPatternError(
                    f"rack {rack} must lose exactly {p.failures_per_rack} distinct nodes"
                )
            if any(not 1 <= i <= p.nodes_per_rack for i in idxs):
                raise RepairPatternError(f"node index out of range in rack {rack}")
        if not _distinct(self.helpers, p.d):
            raise RepairPatternError(f"need exactly {p.d} distinct helper racks")
        if any(not 1 <= h <= p.r for h in self.helpers):
            raise RepairPatternError("helper rack out of range")
        if set(self.helpers) & set(self.racks):
            raise RepairPatternError("helper racks must be disjoint from failed racks")
        return self


def _distinct(values, count: int) -> bool:
    return len(values) == len(set(values)) == count


@dataclass(frozen=True)
class TradeoffPoint:
    """One (alpha, beta1, beta2) operating point with its bandwidth and file size."""

    alpha: Fraction
    beta1: Fraction
    beta2: Fraction
    gamma: Fraction
    file_size: Fraction
    role: str = ROLE_CUSTOM

    def __post_init__(self):
        for name in ("alpha", "beta1", "beta2", "gamma", "file_size"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if min(self.alpha, self.beta1, self.beta2, self.gamma, self.file_size) < 0:
            raise ValueError("tradeoff point values must be nonnegative")


def _check_file_size(file_size) -> Fraction:
    b = Fraction(file_size)
    if b <= 0:
        raise ValueError(f"file size must be positive, got {b}")
    return b


def gamma_of(p: CodeParams, beta1, beta2) -> Fraction:
    """Cross-rack repair bandwidth per failed rack: d*beta1 + (f-1)*beta2."""
    return p.d * Fraction(beta1) + (p.f - 1) * Fraction(beta2)


def msrcr_point(p: CodeParams, file_size) -> TradeoffPoint:
    """Minimum-storage corner: alpha = B/k, beta1 = beta2 = (B/k)(e/f)/(d-m+f)."""
    b = _check_file_size(file_size)
    alpha = b / p.k
    beta = alpha * Fraction(p.e, p.f) / (p.d - p.m + p.f)
    return TradeoffPoint(
        alpha=alpha, beta1=beta, beta2=beta,
        gamma=gamma_of(p, beta, beta), file_size=b, role=ROLE_MSRCR,
    )


def mbrcr_point(p: CodeParams, file_size) -> TradeoffPoint:
    """Minimum-bandwidth corner: beta1 = 2*beta2, alpha = (f/e)*gamma."""
    b = _check_file_size(file_size)
    denom = p.k * Fraction(p.f, p.e) * (p.d + Fraction(p.f - 1, 2)) + Fraction(p.m - p.m**2, 2)
    beta1 = b / denom
    beta2 = beta1 / 2
    gamma = gamma_of(p, beta1, beta2)
    alpha = Fraction(p.f, p.e) * gamma
    return TradeoffPoint(
        alpha=alpha, beta1=beta1, beta2=beta2,
        gamma=gamma, file_size=b, role=ROLE_MBRCR,
    )


@dataclass(frozen=True)
class ConstructionLayout:
    """Integer parameters of the minimum-bandwidth code construction.

    alpha = 2d+f-1, beta1 = 2e/f, beta2 = e/f; file_size is the supported B
    and n_global the number of coded symbols the outer MDS code produces.
    """

    alpha: int
    beta1: int
    beta2: int
    gamma: int
    file_size: int
    n_global: int

    @property
    def point(self) -> TradeoffPoint:
        return TradeoffPoint(
            alpha=self.alpha, beta1=self.beta1, beta2=self.beta2,
            gamma=self.gamma, file_size=self.file_size, role=ROLE_MBRCR,
        )


def construction_params(p: CodeParams) -> ConstructionLayout:
    """Integer layout of the minimum-bandwidth construction for ``p``."""
    epf = p.failures_per_rack
    alpha = 2 * p.d + p.f - 1
    beta1 = 2 * epf
    beta2 = epf
    file_size = p.k * alpha + epf * (p.m - p.m**2)
    split_form = (p.k - p.m * epf) * alpha + epf * p.m * (2 * p.d + p.f - p.m)
    assert file_size == split_form
    n_global = (p.n - p.r * epf) * alpha + epf * p.m * (2 * p.d + p.f - p.m)
    return ConstructionLayout(
        alpha=alpha, beta1=beta1, beta2=beta2,
        gamma=p.d * beta1 + (p.f - 1) * beta2,
        file_size=file_size, n_global=n_global,
    )
