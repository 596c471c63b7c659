"""Correctness gate shared by the benchmark's processes.

Every check runs outside the timed regions.  Each check is one attempted
operation; a check that does not hold is one failed operation, so the
benchmark's ``failed / attempted`` is the share of outputs that were wrong.
"""

from __future__ import annotations

import random


class Gate:
    """Counts attempted and failed checks and keeps the first few messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok

    def merge(self, other: dict) -> None:
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.messages.extend(other["messages"][: 20 - len(self.messages)])

    def to_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "messages": self.messages}


def random_pairs(rng: random.Random, M: int, n: int, count: int):
    """``count`` operand pairs as coefficient tuples, drawn from ``rng``."""
    return [(tuple(rng.randrange(M) for _ in range(n)),
             tuple(rng.randrange(M) for _ in range(n)))
            for _ in range(count)]


def check_products(gate: Gate, params, pairs, products, what: str) -> None:
    """Compare each product with the schoolbook oracle ``naive_negacyclic_mul``.

    ``pairs`` holds coefficient tuples; ``products`` holds coefficient
    sequences in the same order.
    """
    from nttmul.polymul import Polynomial, naive_negacyclic_mul

    gate.check(len(products) == len(pairs),
               f"{what}: {len(products)} products for {len(pairs)} pairs")
    M = params.M
    for i, ((a, b), got) in enumerate(zip(pairs, products)):
        want = naive_negacyclic_mul(Polynomial(a, M), Polynomial(b, M),
                                    params).coeffs
        gate.check(tuple(got) == want,
                   f"{what}: product {i} disagrees with the schoolbook oracle")


def check_report(gate: Gate, report: dict, n: int, mode: str,
                 what: str) -> None:
    """Check a ``CycleReport`` (as a dict) against the closed forms.

    The model is checked only against these closed forms: the repository
    holds no hardware measurements to compare simulated time with.
    """
    from nttmul.pipesim import predicted_first_mul_latency

    gate.check(report["steady_cycles_per_mul"] == n // 2,
               f"{what}: steady_cycles_per_mul = "
               f"{report['steady_cycles_per_mul']}, expected N/2 = {n // 2}")
    if mode == "schedule":
        want = predicted_first_mul_latency(n)
        gate.check(report["first_mul_latency"] == want,
                   f"{what}: first_mul_latency = "
                   f"{report['first_mul_latency']}, expected {want}")
    gate.check(report["stall_free"] is True, f"{what}: pipeline stalled")
