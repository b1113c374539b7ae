"""Reproduction of *Collie: Finding Performance Anomalies in RDMA Subsystems*
(Kong et al., NSDI 2022).

The public API re-exports the pieces a downstream user needs:

* :class:`repro.core.collie.Collie` — the search tool itself;
* :mod:`repro.hardware.subsystems` — the eight testbed presets of Table 1;
* :mod:`repro.core.space` — the four-dimensional workload search space;
* :mod:`repro.verbs` — the software verbs layer workloads are written in.

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for the
paper-versus-measured record of every table and figure.
"""

import importlib

__version__ = "1.0.0"

__all__ = ["__version__"]


def lazy_attribute(package: str, submodules: dict):
    """A package's module ``__getattr__`` that imports a public name's
    submodule (``submodules`` maps name -> submodule) on first use, so
    importing the package loads none of them."""

    def __getattr__(name: str):
        submodule = submodules.get(name)
        if submodule is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        return getattr(
            importlib.import_module(f"{package}.{submodule}"), name
        )

    return __getattr__
