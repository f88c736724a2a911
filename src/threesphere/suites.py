"""Seeded identity suites: each check reports its worst residual.

These back the ``verify`` command.  A check is a batch of random
instances of one algebraic or topological contract; the residual is the
largest absolute coefficient deviation seen, compared against a fixed
tolerance.

A suite is one ``block(start, size)`` function, drawing each kind of
instance once per block of :data:`BLOCK` rows, and one ordered ``(name,
tolerance)`` table; a check keeps its worst residual over the blocks.
The protocol block also reads its part of the orientation stream twice
and sums it with the kernel behind ``simulate`` and ``scan``; the
balance check is that kernel's one sum over the whole stream.
"""

from __future__ import annotations

import functools
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
    handedness_sign_sum,
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

# Instances per kernel call.  At 10**4 samples, blocks of 2**11 rows instead
# of 2**10 halve the kernel calls and raise each suite's tracemalloc peak from
# at most 0.6 to about 1.2 MB; the benchmark's verify-suites peak resident
# memory rose 0.7 MB.  Blocks of 10**4 rows peaked 4.7 MB higher in resident
# memory than blocks of 2**10.  Blocks of 2**12 rows, with the suites on
# two threads, peak at 1.9 (algebra), 2.5 (topology) and 0.7 (protocol) MB
# of tracemalloc at 10**4 samples; the benchmark's verify-suites peak
# resident memory rose 2.5 MB, from 61.3 MB.
BLOCK = 1 << 12

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


def _worst(samples: int, block) -> list:
    """Per-check maxima of ``block(start, size)``'s residuals over the blocks of ``samples``.

    ``np.max`` keeps a NaN residual, which then fails its check.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    starts = range(0, samples, BLOCK)
    return np.max([block(start, min(BLOCK, samples - start)) for start in starts], axis=0).tolist()


def _checks(residuals, *table) -> list:
    return [PropertyCheck(name, worst, tol) for (name, tol), worst in zip(table, residuals)]


def _random_signs(rng, size: int) -> np.ndarray:
    return 1.0 - 2.0 * rng.integers(2, size=size)


def algebra_suite(samples: int = 1000, seed: int = 0) -> list:
    rng = np.random.default_rng(seed)

    def block(start, size):
        # Each draw's residuals are taken, and its rows dropped, before the
        # next draw, so one group of temporaries is alive at a time.
        m, n, p = rng.uniform(-10.0, 10.0, (3, size, 8))
        mn_p = geometric_product(geometric_product(m, n), p)
        associativity = _gap(mn_p, geometric_product(m, geometric_product(n, p)))
        del m, n, p, mn_p
        signs = _random_signs(rng, size)
        vectors = np.zeros((2, size, 8))
        vectors[..., 1:4] = rng.standard_normal((2, size, 3))
        a, b = vectors[..., 1:4]
        dot_plus_wedge = wedge(*vectors)
        dot_plus_wedge[:, 0] += np.sum(a * b, axis=1)
        split = _gap(geometric_product(*vectors), dot_plus_wedge)
        generic = _gap(bivector_identity_residual(signs, a, b), 0.0)
        flip = _gap(dual_bivector(LEFT_HANDED, a) + dual_bivector(RIGHT_HANDED, a), 0.0)
        del vectors, a, b, dot_plus_wedge
        jk = rng.integers(3, size=(2, size))
        basis = _gap(bivector_identity_residual(signs, *np.eye(3)[jk]), 0.0)
        embedded = np.zeros((2, size, 8))
        embedded[..., _EVEN] = rng.standard_normal((2, size, 4))
        full = geometric_product(*embedded)
        p, q = embedded[..., _EVEN]
        del embedded
        pq = even_product(p, q)
        norm = np.linalg.norm
        return (
            split,
            basis,
            generic,
            max(_gap(full[:, _ODD], 0.0), _gap(pq, full[:, _EVEN])),
            _gap(norm(pq, axis=1), norm(p, axis=1) * norm(q, axis=1)),
            associativity,
            flip,
        )

    return _checks(
        _worst(samples, block),
        ("vector product splits into dot plus wedge", 1e-12),
        ("basis bivector products follow the orientation rule", 1e-12),
        ("generic oriented bivector identity", 1e-12),
        ("even subalgebra closes and matches the full product", 1e-12),
        ("norm is multiplicative on the even part", 1e-12),
        ("geometric product associates", 1e-10),
        ("orientation flip negates the dual exactly", 0.0),
    )


def topology_suite(samples: int = 1000, seed: int = 0) -> list:
    rng = np.random.default_rng(seed)

    try:
        stereographic_project(S2Point(0.0, 0.0, 1.0))
        pole_accepted = 1.0
    except NorthPoleError:
        pole_accepted = 0.0

    # Instance i splits its target into 1 + i % 8 factors.  A block is factorized
    # in one call, under a fresh seed, and multiplied back over all its slots:
    # the identities padding the shorter rows are exact.  The pole check is one
    # fixed instance, so every block reports it.
    def block(start, size):
        a, b = _random_unit_rows(rng, 3, 2, size)
        a[a[:, 2] > 1.0 - 1e-6, 2] *= -1.0
        round_trip = _gap(stereographic_unproject(stereographic_project(a)), a)
        witness = _gap(s2_nonclosure_witness(a, b)[:, 0], -np.sum(a * b, axis=1))
        del a, b
        p, q = _random_unit_rows(rng, 4, 2, size)
        closure = _gap(np.sum(even_product(p, q) ** 2, axis=1), 1.0)
        counts = 1 + (start + np.arange(size)) % 8
        factors = factorize_s3_point(p, counts, seed=int(rng.integers(2**31)))
        product = functools.reduce(even_product, factors.swapaxes(0, 1))
        return (
            round_trip,
            pole_accepted,
            _gap(product, p),
            _gap(np.einsum("...i,...i", factors, factors), 1.0),
            witness,
            closure,
        )

    return _checks(
        _worst(samples, block),
        ("stereographic round trip returns to the point", 1e-12),
        ("north pole is rejected by the projection", 0.0),
        ("factors multiply back to the target", 1e-9),
        ("every factor lies on the unit 3-sphere", 1e-12),
        ("equatorial product scalar equals minus the dot", 1e-12),
        ("the 3-sphere closes under multiplication", 1e-12),
    )


def protocol_suite(samples: int = 1000, seed: int = 0) -> list:
    rng = np.random.default_rng(seed)

    def block(start, size):
        alpha, beta = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, (2, size))
        signs = _random_signs(rng, size)
        alice = alice_outcome(alpha, signs)
        direct = oriented_even_product(signs, alice, bob_outcome(beta, signs))
        stream = handedness_signs(seed, size, start)
        sum_gap = abs(int(stream.sum()) - handedness_sign_sum(seed, size, start))
        return (
            _gap(direct, joint_product_closed_form(alpha, beta, signs)),
            max(_gap(alice[:, 0], 0.0), _gap(np.sum(alice * alice, axis=1), 1.0)),
            _gap(np.sum(direct * direct, axis=1), 1.0),
            _gap(alice, alice_outcome(alpha + math.pi, signs)),
            max(_gap(stream, handedness_signs(seed, size, start)), sum_gap),
        )

    return _checks(
        [*_worst(samples, block), abs(handedness_sign_sum(seed, samples)) / samples],
        ("closed form matches the direct outcome product", 1e-12),
        ("outcomes sit on the equator of the 3-sphere", 1e-12),
        ("outcome products stay on the 3-sphere", 1e-12),
        ("outcomes are invariant under a half-turn", 1e-12),
        ("orientation stream repeats for a fixed seed", 0.0),
        ("orientation samples are balanced within 4/sqrt(n)", 4.0 / math.sqrt(samples)),
    )


SUITES = {
    "algebra": algebra_suite,
    "topology": topology_suite,
    "protocol": protocol_suite,
}
