"""A numpy module without the names NumPy 2.0 added, for tests of the ``numpy>=1.24`` floor."""

import types

import numpy as np


class _NumPy1(types.ModuleType):
    def __getattr__(self, name):
        if name in ("strings", "concat", "astype", "permute_dims", "isdtype", "unique_values", "vecdot"):
            raise AttributeError(f"NumPy 1 has no numpy.{name}")
        return getattr(np, name)


numpy_1 = _NumPy1("numpy")
