"""Loading scipy's compiled extensions without their packages' `__init__`.

gridrisk calls three of scipy's compiled modules: the HiGHS bindings
(`scipy.optimize._highspy._core`, in `lp`), the batched inverse kernel
that `scipy.linalg.inv` calls (`scipy.linalg._batched_linalg`, in
`network`) and the CSR product kernels of `scipy.sparse`
(`scipy.sparse._sparsetools`, in `gradient`). Importing them the usual way
runs `scipy.optimize/__init__`, `scipy.linalg/__init__` or
`scipy.sparse/__init__`, which pull in scipy's array-API layer and hundreds
of modules gridrisk never calls. `load_scipy_extension` finds the module's
file in its own directory inside scipy and runs only that file. The module
is entered in `sys.modules` under its own name before it runs, and an entry
already there is reused, so an extension's types are never loaded twice and
a later `import scipy.optimize`, `import scipy.linalg` or `import
scipy.sparse` gets this same module.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from types import ModuleType


def load_scipy_extension(name: str, search_path: list[str] | None = None) -> ModuleType:
    """scipy's extension module `name`, found in `search_path` (by default
    its own directory inside scipy, found without importing scipy) and run
    without its parent packages' `__init__`. It is entered in `sys.modules`
    before it runs, and an entry already there is returned."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    if search_path is None:
        scipy = importlib.util.find_spec("scipy")
        roots = scipy.submodule_search_locations if scipy is not None else None
        search_path = [os.path.join(root, *name.split(".")[1:-1]) for root in roots or []]
    spec = importlib.machinery.PathFinder.find_spec(name, search_path)
    if spec is None:
        raise ImportError(
            f"cannot find {name} in {search_path}; gridrisk needs "
            "scipy>=1.17, as pyproject.toml requires", name=name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module
