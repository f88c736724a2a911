"""Geometric algebra of Euclidean 3-space and a 3-sphere correlation simulator.

The library has four layers:

* :mod:`threesphere.algebra`: the eight-dimensional Clifford algebra,
  its even (quaternion-like) part, and the orientation machinery.
* :mod:`threesphere.topology`: membership and closure on the 3-sphere
  and its equatorial 2-sphere, point factorization, stereographic
  projection.
* :mod:`threesphere.protocol`: the local measurement protocol whose
  shared hidden variable is the orientation of the algebra.
* :mod:`threesphere.correlations`: expectation estimators, the quantum
  reference ``Tr[rho P(alpha) (x) P(beta)]`` of the |Phi+> photon state,
  and CHSH evaluation/search.

The package re-exports each layer's ``__all__``, the one place a public
name is declared; among them are ``SIGN_CHUNK``, ``sign_sum_plan`` and
``stream_summary``.

The ``threesphere`` command exposes the same functionality as
deterministic, file-producing experiments.
"""

__version__ = "0.1.0"

from . import algebra, correlations, protocol, topology
from .algebra import *
from .correlations import *
from .protocol import *
from .topology import *

__all__ = [
    "__version__", *algebra.__all__, *topology.__all__, *protocol.__all__, *correlations.__all__
]
