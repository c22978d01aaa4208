"""Exact enumeration of pattern-avoiding linear extensions of
rectangular posets: counting engines, closed forms, bijections with
lattice paths and tableaux, transfer matrices, and q-statistics."""

from .engine import (avoiders, count_avoiders, count_extensions,
                     insert_213, is_extension, linear_extensions,
                     list_avoiders)
from .gentree import children_labels, count_at_depth, grow_extensions, saw_label
from .perms import (avoids, complement, contains, descents, inv, maj, perm,
                    reverse, reverse_complement)
from .posets import (build, canonicalize, parse_poset_spec, saw_poset,
                     zip_poset)

# the public names of the modules loaded on first use of one of them
# (PEP 562), so that `lexcount.cli` answering from its cache skips them
_LAZY = {name: module for module, names in (
    ("formulas", ("catalan", "count_formula", "fibonacci", "fuss_catalan",
                  "hook_count", "inv_bounds_1243")),
    ("qstats", ("F_poly", "maj_q_catalan", "q_catalan", "q_catalan_tilde",
                "q_int", "stat_gf")),
    ("transfer", ("a_vector", "b_matrix", "char_poly", "count_2143",
                  "recurrence_extend")),
) for name in names}

__all__ = [
    "avoiders", "count_avoiders", "count_extensions", "insert_213",
    "is_extension", "linear_extensions", "list_avoiders",
    "children_labels", "count_at_depth", "grow_extensions", "saw_label",
    "avoids", "complement", "contains", "descents", "inv", "maj", "perm",
    "reverse", "reverse_complement",
    "build", "canonicalize", "parse_poset_spec", "saw_poset", "zip_poset",
    *_LAZY,
]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
