"""Exact enumeration of pattern-avoiding linear extensions of
rectangular posets: counting engines, closed forms, bijections with
lattice paths and tableaux, transfer matrices, and q-statistics."""

# loaded with the package (polys with them), so they stay its attributes;
# perfbench's late-import test deletes lexcount.gentree after the CLI loads
from . import engine, gentree, perms, posets

# each public name -> its home module, imported on the name's first use
# (PEP 562): a cached `lexcount.cli` answer skips formulas, qstats, transfer
_HOME = {name: module for module, names in (
    ("engine", ("avoiders", "count_avoiders", "count_extensions",
                "insert_213", "is_extension", "linear_extensions",
                "list_avoiders")),
    ("formulas", ("catalan", "count_formula", "fibonacci", "fuss_catalan",
                  "hook_count", "inv_bounds_1243")),
    ("gentree", ("children_labels", "count_at_depth", "grow_extensions",
                 "saw_label")),
    ("perms", ("avoids", "complement", "contains", "descents", "inv", "maj",
               "perm", "reverse", "reverse_complement")),
    ("posets", ("build", "canonicalize", "parse_poset_spec", "saw_poset",
                "zip_poset")),
    ("qstats", ("F_poly", "maj_q_catalan", "q_catalan", "q_catalan_tilde",
                "q_int", "stat_gf")),
    ("transfer", ("a_vector", "b_matrix", "char_poly", "count_2143",
                  "recurrence_extend")),
) for name in names}
__all__ = [*_HOME]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
