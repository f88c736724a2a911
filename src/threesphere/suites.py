"""Seeded identity suites: each check reports its worst residual.

These back the ``verify`` command.  A check is a batch of random
instances of one algebraic or topological contract; the residual is the
largest absolute coefficient deviation seen, compared against a fixed
tolerance.

Instances are drawn in blocks of :data:`BLOCK` rows, each block one call
of the array kernels per operation, so memory stays flat in the sample
count; a check keeps the worst residual over its blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    LEFT_HANDED,
    RIGHT_HANDED,
    _gap,
    bivector_identity_residual,
    dual_bivector,
    even_product,
    geometric_product,
    oriented_even_product,
    wedge,
)
from .protocol import (
    alice_outcome,
    bob_outcome,
    handedness_signs,
    joint_product_closed_form,
)
from .topology import (
    NorthPoleError,
    S2Point,
    _random_unit_rows,
    factorize_s3_point,
    s2_nonclosure_witness,
    stereographic_project,
    stereographic_unproject,
)

__all__ = ["BLOCK", "PropertyCheck", "algebra_suite", "topology_suite", "protocol_suite", "SUITES"]

# Instances per kernel call.  Over the three suites at 10**4 samples, blocks
# of 10**4 rows peaked 4.7 MB higher in resident memory than blocks of 2**10.
BLOCK = 1 << 10

# Coefficient positions of the scalar and the three bivectors in a multivector row.
_EVEN = [0, 4, 5, 6]
_ODD = [1, 2, 3, 7]


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    max_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


def _blocks(samples: int):
    """``(start, size)`` of the blocks that cover ``samples`` instances."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    for start in range(0, samples, BLOCK):
        yield start, min(BLOCK, samples - start)


def _worst(samples: int, block_residual) -> float:
    """Largest ``block_residual(size)`` over the blocks of ``samples`` instances."""
    return max(block_residual(size) for _, size in _blocks(samples))


def _random_signs(rng, size: int) -> np.ndarray:
    return 1.0 - 2.0 * rng.integers(2, size=size)


def _random_angles(rng, size: int) -> np.ndarray:
    return rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size)


def algebra_suite(samples: int = 1000, seed: int = 0) -> list:
    rng = np.random.default_rng(seed)

    def split(size):
        u, v = np.zeros((2, size, 8))
        u[:, 1:4], v[:, 1:4] = rng.standard_normal((2, size, 3))
        dot_plus_wedge = wedge(u, v)
        dot_plus_wedge[:, 0] += np.sum(u * v, axis=1)
        return _gap(geometric_product(u, v), dot_plus_wedge)

    def basis_rule(size):
        j, k = rng.integers(3, size=(2, size))
        signs = _random_signs(rng, size)
        ej, ek = np.eye(3)[j], np.eye(3)[k]
        product = even_product(dual_bivector(signs, ej), dual_bivector(signs, ek))
        product[:, 0] += j == k
        oriented_cross = signs[:, None] * np.cross(ej, ek)
        return _gap(product + dual_bivector(signs, oriented_cross), 0.0)

    def generic_identity(size):
        signs = _random_signs(rng, size)
        a, b = rng.standard_normal((2, size, 3))
        return _gap(bivector_identity_residual(signs, a, b), 0.0)

    def even_closure(size):
        embedded = np.zeros((2, size, 8))
        embedded[..., _EVEN] = rng.standard_normal((2, size, 4))
        p, q = embedded[..., _EVEN]
        full = geometric_product(*embedded)
        return max(_gap(full[:, _ODD], 0.0), _gap(even_product(p, q), full[:, _EVEN]))

    def multiplicative_norm(size):
        p, q = rng.standard_normal((2, size, 4))
        norm = np.linalg.norm
        return _gap(norm(even_product(p, q), axis=1), norm(p, axis=1) * norm(q, axis=1))

    def associativity(size):
        m, n, p = rng.uniform(-10.0, 10.0, (3, size, 8))
        return _gap(
            geometric_product(geometric_product(m, n), p),
            geometric_product(m, geometric_product(n, p)),
        )

    def orientation_flip(size):
        v = rng.standard_normal((size, 3))
        return _gap(dual_bivector(LEFT_HANDED, v) + dual_bivector(RIGHT_HANDED, v), 0.0)

    return [
        PropertyCheck(name, _worst(samples, block_residual), tolerance)
        for name, block_residual, tolerance in (
            ("vector product splits into dot plus wedge", split, 1e-12),
            ("basis bivector products follow the orientation rule", basis_rule, 1e-12),
            ("generic oriented bivector identity", generic_identity, 1e-12),
            ("even subalgebra closes and matches the full product", even_closure, 1e-12),
            ("norm is multiplicative on the even part", multiplicative_norm, 1e-12),
            ("geometric product associates", associativity, 1e-10),
            ("orientation flip negates the dual exactly", orientation_flip, 0.0),
        )
    ]


def topology_suite(samples: int = 1000, seed: int = 0) -> list:
    rng = np.random.default_rng(seed)

    def round_trip(size):
        points = _random_unit_rows(rng, 3, size)
        points[points[:, 2] > 1.0 - 1e-6, 2] *= -1.0
        return _gap(stereographic_unproject(stereographic_project(points)), points)

    try:
        stereographic_project(S2Point(0.0, 0.0, 1.0))
        pole_accepted = 1.0
    except NorthPoleError:
        pole_accepted = 0.0

    # Instance i splits its target into 1 + i % 8 factors; the instances of
    # one count in a block are factorized together, under a fresh seed.
    worst_product = worst_unit = 0.0
    for start, size in _blocks(samples):
        targets = _random_unit_rows(rng, 4, size)
        counts = 1 + (start + np.arange(size)) % 8
        for count in sorted(set(counts.tolist())):
            chosen = targets[counts == count]
            factors = factorize_s3_point(chosen, count, seed=int(rng.integers(2**31)))
            product = factors[:, 0]
            for k in range(1, count):
                product = even_product(product, factors[:, k])
            worst_product = max(worst_product, _gap(product, chosen))
            worst_unit = max(worst_unit, _gap(np.sum(factors * factors, axis=-1), 1.0))

    def witness(size):
        a, b = _random_unit_rows(rng, 3, size), _random_unit_rows(rng, 3, size)
        return _gap(s2_nonclosure_witness(a, b)[:, 0], -np.sum(a * b, axis=1))

    def closure(size):
        p, q = _random_unit_rows(rng, 4, size), _random_unit_rows(rng, 4, size)
        return _gap(np.sum(even_product(p, q) ** 2, axis=1), 1.0)

    return [
        PropertyCheck(name, worst, tolerance)
        for name, worst, tolerance in (
            ("stereographic round trip returns to the point", _worst(samples, round_trip), 1e-12),
            ("north pole is rejected by the projection", pole_accepted, 0.0),
            ("factors multiply back to the target", worst_product, 1e-9),
            ("every factor lies on the unit 3-sphere", worst_unit, 1e-12),
            ("equatorial product scalar equals minus the dot", _worst(samples, witness), 1e-12),
            ("the 3-sphere closes under multiplication", _worst(samples, closure), 1e-12),
        )
    ]


def protocol_suite(samples: int = 1000, seed: int = 0) -> list:
    rng = np.random.default_rng(seed)

    def closed_form(size):
        alpha, beta = _random_angles(rng, (2, size))
        signs = _random_signs(rng, size)
        direct = oriented_even_product(signs, alice_outcome(alpha, signs), bob_outcome(beta, signs))
        return _gap(direct, joint_product_closed_form(alpha, beta, signs))

    def on_equator(size):
        outcome = alice_outcome(_random_angles(rng, size), _random_signs(rng, size))
        return max(_gap(outcome[:, 0], 0.0), _gap(np.sum(outcome * outcome, axis=1), 1.0))

    def unit_products(size):
        alpha, beta = _random_angles(rng, (2, size))
        signs = _random_signs(rng, size)
        direct = oriented_even_product(signs, alice_outcome(alpha, signs), bob_outcome(beta, signs))
        return _gap(np.sum(direct * direct, axis=1), 1.0)

    def half_turn(size):
        theta, signs = _random_angles(rng, size), _random_signs(rng, size)
        return _gap(alice_outcome(theta, signs), alice_outcome(theta + math.pi, signs))

    repeat_gap, total = 0.0, 0
    for start, size in _blocks(samples):
        first = handedness_signs(seed, size, start)
        repeat_gap = max(repeat_gap, _gap(first, handedness_signs(seed, size, start)))
        total += int(first.sum())

    return [
        PropertyCheck(name, worst, tolerance)
        for name, worst, tolerance in (
            ("closed form matches the direct outcome product", _worst(samples, closed_form), 1e-12),
            ("outcomes sit on the equator of the 3-sphere", _worst(samples, on_equator), 1e-12),
            ("outcome products stay on the 3-sphere", _worst(samples, unit_products), 1e-12),
            ("outcomes are invariant under a half-turn", _worst(samples, half_turn), 1e-12),
            ("orientation stream repeats for a fixed seed", repeat_gap, 0.0),
            ("orientation samples are balanced within 4/sqrt(n)",
             abs(total) / samples, 4.0 / math.sqrt(samples)),
        )
    ]


SUITES = {
    "algebra": algebra_suite,
    "topology": topology_suite,
    "protocol": protocol_suite,
}
