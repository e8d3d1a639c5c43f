"""Synthetic SPEC92/SPEC95 benchmark models.

Each workload generates a memory trace whose locality structure matches the
paper's description of the corresponding SPEC benchmark (see DESIGN.md for
the substitution argument). Use :func:`get_workload` /
:func:`all_workloads` rather than the classes directly.
"""

from repro.util import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        "repro.workloads.base": ("DEFAULT_SCALE",),
        "repro.workloads.registry": (
            "all_workloads",
            "get_workload",
            "table3_rows",
            "workload_names",
        ),
    },
)
