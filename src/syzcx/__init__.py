"""Growth classes of syzygy dimension sequences over monomial path algebras.

The pipeline: parse and validate an algebra (`algebra`), build the syzygy
quiver of a module by the cyclic-key calculus (`syzygy`), condense it into
strongly connected components with exact Perron roots (`spectra`), and read
off the poly-exponential growth class (`complexity`). `curvature` decides
which bases are realizable and constructs witnesses; `oracle` is the
brute-force linear-algebra ground truth; `cli` is the command-line surface.
`graph` holds the strongly connected component traversal they share, and
`errors` the exception hierarchy.

Every public function or class of these modules is also `syzcx.<name>`,
looked up in the module that defines it at each access.
"""

from . import (algebra, complexity, curvature, errors, graph, oracle,
               polynomials, spectra, syzygy)

__version__ = "0.1.0"

# Public name -> the module whose own function or class it is. The package
# keeps the module, not the object, so that a later rebinding in the module
# (a profiler's wrapper, a test's monkeypatch) shows through `syzcx.<name>`.
_HOME = {name: m
         for m in (algebra, complexity, curvature, errors, graph, oracle,
                   polynomials, spectra, syzygy)
         for name, obj in vars(m).items()
         if not name.startswith("_") and callable(obj)
         and getattr(obj, "__module__", None) == m.__name__}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        return getattr(_HOME[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
