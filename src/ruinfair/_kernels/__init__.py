"""The Monte Carlo kernels.

They are the NumPy lockstep kernels of ``_lockstep``, which need no build
step.  ``tests/test_kernels.py`` checks them bit for bit against the scalar,
one-trial-at-a-time references of ``tests/oracles.py``.  The sweep's
collision draws (``sim.collision_totals``) and ``chance_mc_count`` both
draw their totals with ``_lockstep.compound_poisson_totals``.
"""

from ._lockstep import BACKEND, chance_mc_count, ruin_mc_count

__all__ = ["BACKEND", "ruin_mc_count", "chance_mc_count"]
