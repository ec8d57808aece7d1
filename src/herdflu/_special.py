"""scipy's `ndtri` and `stdtr` ufuncs, loaded without the `scipy.special`
package.

They are the normal quantile of the Euler-Maruyama noise and the t
distribution of the PRCC p-values, and the package's only use of scipy.
After `import herdflu.cli`, `from scipy.special import ndtri, stdtr`
takes 0.22-0.28 s and +24.2 MB of peak RSS (2-vCPU Xeon VM, Python
3.11, numpy 2.4, scipy 1.17.1): the package's `__init__` builds an
array-API copy of numpy (`getattr` over `dir(numpy)`), which loads
`numpy.f2py`, `numpy.testing`, `numpy.ma` and more. The kernels live in
the extension module `scipy.special._ufuncs`; this module loads it in
0.016-0.026 s and +4.5 MB.

So, unless `scipy.special` is already loaded, this module imports
`scipy.special._ufuncs` under a bare placeholder package `scipy.special`
whose `__path__` is scipy's `special` directory, and removes the
placeholder afterwards. The kernel modules stay in `sys.modules`, so a
later `import scipy.special` reuses them and exports these very objects.
Any `ImportError` or `AttributeError` on the way (another scipy layout)
falls back to the full import. The placeholder is in `sys.modules` only
while this module is first imported; another thread importing
`scipy.special` at that moment would see it.

Import this module inside the function that needs a kernel, so that
commands without noise or PRCC load no scipy at all.
"""

from __future__ import annotations

import importlib.util
import sys
import types


def _kernels() -> tuple:
    special = sys.modules.get("scipy.special")
    if special is not None:
        return special.ndtri, special.stdtr
    try:
        return _ufuncs_alone()
    except (ImportError, AttributeError):
        from scipy.special import ndtri, stdtr

        return ndtri, stdtr


def _ufuncs_alone() -> tuple:
    locations = importlib.util.find_spec("scipy.special").submodule_search_locations
    placeholder = types.ModuleType("scipy.special")
    placeholder.__path__ = list(locations)
    sys.modules["scipy.special"] = placeholder
    try:
        ufuncs = importlib.import_module("scipy.special._ufuncs")
    finally:
        if sys.modules.get("scipy.special") is placeholder:
            del sys.modules["scipy.special"]
    return ufuncs.ndtri, ufuncs.stdtr


ndtri, stdtr = _kernels()
