"""Weak-measurement pointer statistics.

Simulation and closed-form prediction of pre/post-selected weak
measurements: exact post-selected pointer evolution, generalized and
orthogonal weak values, perturbative shift formulas with validity
diagnostics, truncated weak-value expansions of the conditional pointer
state, and amplification sweeps with an optimum search.

The package re-exports exactly the names in each submodule's ``__all__``.
"""

from . import amplifier, errors, oracle, pointer, predictor, qops, scenario, weak_values
from .amplifier import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .pointer import *  # noqa: F401,F403
from .predictor import *  # noqa: F401,F403
from .qops import *  # noqa: F401,F403
from .scenario import *  # noqa: F401,F403
from .weak_values import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (errors, qops, pointer, weak_values, predictor, scenario, oracle, amplifier)
    for name in module.__all__
]
