"""Correctness gate for every benchmark operation, and the gate's self-check.

Each ``*_problems`` function returns the list of ways a result is wrong
(empty when it is right). The workloads call them outside the timed region
and record the verdict in a ``Gate``; any failed operation makes the run
report ``correct: false`` and exit nonzero.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


class Gate:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, op: str, problems) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{op}: {'; '.join(problems)}")
        return not problems


def message_problems(expected, got) -> list[str]:
    """A recovered message must equal the encoded one symbol for symbol."""
    expected = np.asarray(expected)
    got = np.asarray(got)
    if expected.shape != got.shape:
        return [f"recovered shape {got.shape}, expected {expected.shape}"]
    diff = np.flatnonzero(expected != got)
    return [f"{diff.size} symbols differ, first at {int(diff[0])}"] if diff.size else []


def bytes_problems(expected: bytes, got: bytes) -> list[str]:
    return [] if expected == got else [f"recovered {len(got)} bytes differ from the {len(expected)} stored"]


def repair_problems(restored: bool, cross: dict, sent: int, gamma: int, racks) -> list[str]:
    """A repair restores the pre-failure bytes, moves exactly gamma cross-rack
    symbols into each failed rack of ``racks``, and its ledger balances."""
    out = [] if restored else ["repaired nodes differ from their pre-failure bytes"]
    if set(cross) != set(racks):
        out.append(f"cross-rack ledger covers racks {sorted(cross)}, failed racks are {sorted(racks)}")
    out += [f"rack {rack} received {got} cross-rack symbols, gamma = {gamma}"
            for rack, got in sorted(cross.items()) if got != gamma]
    received = sum(cross.values())
    if sent != received:
        out.append(f"round 1 + round 2 sent {sent} symbols but {received} were received")
    return out


def lp_problems(feasible: bool, gamma, lo_gamma, hi_gamma) -> list[str]:
    """An LP optimum is exact, feasible at its point, and between the corner gammas."""
    out = [] if isinstance(gamma, Fraction) else [f"gamma {gamma!r} is not an exact Fraction"]
    if not feasible:
        out.append("optimum is not feasible at its (alpha, beta1, beta2)")
    if not lo_gamma <= gamma <= hi_gamma:
        out.append(f"gamma {gamma} outside the corner range [{lo_gamma}, {hi_gamma}]")
    return out


def mincut_problems(bound, oracle) -> list[str]:
    """The analytic bound equals the flow-graph oracle exactly."""
    if not (isinstance(bound, Fraction) and isinstance(oracle, Fraction)):
        return [f"bound {bound!r} and oracle {oracle!r} must both be Fractions"]
    return [] if bound == oracle else [f"bound {bound} != oracle {oracle}"]


def self_check() -> tuple[int, int, bool]:
    """Feed the gate deliberately wrong results and matching right ones.

    Returns ``(injected, detected, controls_passed)``. A gate that misses an
    injected fault, or rejects a right result, cannot vouch for a run.
    """
    msg = np.arange(60, dtype=np.int64) * 7 % 256
    flipped = msg.copy()
    flipped[17] ^= 1
    wrong = Gate()
    wrong.check("collect", message_problems(msg, flipped))
    wrong.check("cli_collect", bytes_problems(b"rack-aware", b"rack-awarf"))
    wrong.check("repair", repair_problems(False, {2: 9, 5: 9}, 18, 9, (2, 5)))
    wrong.check("repair", repair_problems(True, {2: 10, 5: 9}, 19, 9, (2, 5)))
    wrong.check("repair", repair_problems(True, {2: 9, 5: 9}, 17, 9, (2, 5)))
    wrong.check("repair", repair_problems(True, {2: 9}, 9, 9, (2, 5)))
    wrong.check("curve_point", lp_problems(True, Fraction(40), Fraction(9), Fraction(36)))
    wrong.check("curve_point", lp_problems(False, Fraction(20), Fraction(9), Fraction(36)))
    wrong.check("mincut_check", mincut_problems(Fraction(18), Fraction(19)))
    wrong.check("mincut_check", mincut_problems(18.0, Fraction(18)))
    right = Gate()
    right.check("collect", message_problems(msg, msg.copy()))
    right.check("cli_collect", bytes_problems(b"rack-aware", b"rack-aware"))
    right.check("repair", repair_problems(True, {2: 9, 5: 9}, 18, 9, (2, 5)))
    right.check("curve_point", lp_problems(True, Fraction(20), Fraction(9), Fraction(36)))
    right.check("mincut_check", mincut_problems(Fraction(18), Fraction(18)))
    return wrong.attempted, wrong.failed, right.failed == 0
