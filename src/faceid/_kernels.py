"""scipy's compiled kernels without its Python layers: ``import scipy.fft``
or ``scipy.spatial.distance`` also loads scipy's array-API and special-function
modules, which faceid never calls. A later public scipy import reuses the
module object :func:`kernel` loaded."""

import functools
import importlib.util
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path


@functools.cache
def kernel(name: str):
    """The compiled module ``name``, e.g. ``"scipy.fft._pocketfft.pypocketfft"``."""
    # find_spec locates scipy's install directory without importing scipy
    stem = Path(importlib.util.find_spec("scipy").submodule_search_locations[0],
                *name.split(".")[1:])
    for path in (stem.with_name(stem.name + suffix) for suffix in EXTENSION_SUFFIXES):
        if path.is_file():
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    from importlib.metadata import version
    raise ImportError(f"no compiled kernel {stem}{EXTENSION_SUFFIXES[0]} in scipy "
                      f"{version('scipy')}; faceid needs scipy>=1.17,<1.18")
