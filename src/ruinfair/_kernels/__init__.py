"""The Monte Carlo kernels.

They are the NumPy lockstep kernels of ``_lockstep``, which need no build
step; ``_pure`` is the scalar reference they are checked against, bit for
bit, in ``tests/test_kernels.py``, and the exact fallback that replays the
few surplus paths ``_lockstep.ruin_mc_count`` cannot decide with
``np.log``.  The sweep's collision draws (``sim.collision_totals``) call
``_lockstep.compound_poisson_totals``.
"""

from ._lockstep import BACKEND, chance_mc_count, ruin_mc_count, surplus_path_values

__all__ = ["BACKEND", "ruin_mc_count", "surplus_path_values", "chance_mc_count"]
