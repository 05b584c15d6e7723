"""Backend selection for the Monte Carlo kernels.

Prefers the compiled extension (``_fast``, built from Cython at install
time).  Without it, the NumPy lockstep kernels (``_lockstep``) are used:
they need no build step and run ``ruin_mc_count`` and ``chance_mc_count``
about 10x faster than the scalar reference ``_pure``.
``RUINFAIR_BACKEND=cython``, ``=lockstep`` or ``=pure`` forces a choice
(forcing ``cython`` raises if the extension was not built).  All backends
are bit-identical; the choice only affects speed.  The sweep's collision
draws (``sim.collision_totals``) call ``_lockstep.compound_poisson_totals``
whatever the backend; it has no compiled twin.
"""

from __future__ import annotations

import os

_requested = os.environ.get("RUINFAIR_BACKEND", "").strip().lower()

if _requested == "pure":
    from . import _pure as _impl
elif _requested == "lockstep":
    from . import _lockstep as _impl  # type: ignore[no-redef]
elif _requested == "cython":
    from . import _fast as _impl  # type: ignore[no-redef]
elif _requested == "":
    try:
        from . import _fast as _impl  # type: ignore[no-redef]
    except ImportError:
        from . import _lockstep as _impl  # type: ignore[no-redef]
else:
    raise ImportError(
        f"RUINFAIR_BACKEND must be 'cython', 'lockstep' or 'pure', got {_requested!r}"
    )

BACKEND: str = _impl.BACKEND
ruin_mc_count = _impl.ruin_mc_count
surplus_path_values = _impl.surplus_path_values
chance_mc_count = _impl.chance_mc_count

__all__ = ["BACKEND", "ruin_mc_count", "surplus_path_values", "chance_mc_count"]
