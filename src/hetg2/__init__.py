"""Exact verification engine for heterotic G2 identities on
3-(alpha,delta)-Sasaki and (alpha,delta)-Sasaki 7-manifolds."""

# name -> defining submodule; each is imported on first access (PEP 562), so
# that importing the package, or only its command line, imports no domain
# module
_EXPORTS = {
    "Coframe": "exterior",
    "DegreeError": "exterior",
    "Form": "exterior",
    "Scalar": "scalar",
    "SymbolTable": "scalar",
    "UnknownSymbolError": "scalar",
    "prem": "scalar",
}

__all__ = ["AlgebraError", *_EXPORTS]


# defined here, not in ``scalar``, so that ``spinor`` raises it without
# importing ``scalar``; ``scalar`` re-exports it
class AlgebraError(Exception):
    """Base error for exact-algebra failures."""


__version__ = "0.1.0"

# Each name below is read by the driver and by one other module; it is kept
# here so that the driver reads it without importing that module.
PARAM_KEYS = ("alpha", "delta", "alphap")  # the --params keys
# the spinor names of ``show``; ``spinor.spinor_registry`` has one entry each
SPINOR_LABELS = (*(f"psi{i}.sp1" for i in range(4)), "u(1,1,1)",
                 "u(-1,-1,-1)", "u(1,1,-1)", "u(1,-1,1)", "u(-1,1,1)",
                 *(f"v{k}" for k in range(1, 9)), "Psi.su3")


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *_EXPORTS})
