"""The one import point of the hot numerical kernels.

The package calls the four primitives through this module, and the
benchmark's tracer wraps them here; their numpy implementations live in
`_slowpath`.
"""
from ._slowpath import cubic_eval, penta_march_u, skew_sum, sym_eval

name = "numpy"

__all__ = ["name", "cubic_eval", "sym_eval", "skew_sum", "penta_march_u"]
