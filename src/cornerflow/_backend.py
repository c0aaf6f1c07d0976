"""Select the compiled kernels if the extension built, else the NumPy twins.

Set CORNERFLOW_BACKEND=slow (or fast) to force a choice; forcing "fast" when
the extension is missing raises so benchmarks cannot silently compare slow
against itself.
"""
import os

_choice = os.environ.get("CORNERFLOW_BACKEND", "").strip().lower()

if _choice == "slow":
    from . import _slowpath as _impl
elif _choice == "fast":
    from . import _fastpath as _impl  # ImportError here means no extension
elif _choice:
    raise ImportError(f"CORNERFLOW_BACKEND={_choice!r}: expected 'fast' or 'slow'")
else:
    try:
        from . import _fastpath as _impl
    except ImportError:
        from . import _slowpath as _impl

name = _impl.NAME
cubic_eval = _impl.cubic_eval
sym_eval = _impl.sym_eval
skew_sum = _impl.skew_sum
penta_march_u = _impl.penta_march_u
