"""Exact enumeration of pattern-avoiding linear extensions of
rectangular posets: counting engines, closed forms, bijections with
lattice paths and tableaux, transfer matrices, and q-statistics."""

from .engine import (avoiders, count_avoiders, count_extensions,
                     insert_213, is_extension, linear_extensions,
                     list_avoiders)
from .formulas import (catalan, count_formula, fibonacci, fuss_catalan,
                       hook_count, inv_bounds_1243)
from .gentree import children_labels, count_at_depth, grow_extensions, saw_label
from .perms import (avoids, complement, contains, descents, inv, maj, perm,
                    reverse, reverse_complement)
from .posets import (build, canonicalize, parse_poset_spec, saw_poset,
                     zip_poset)
from .qstats import (F_poly, maj_q_catalan, q_catalan, q_catalan_tilde,
                     q_int, stat_gf)
from .transfer import (a_vector, b_matrix, char_poly, count_2143,
                       recurrence_extend)

__all__ = [
    "avoiders", "count_avoiders", "count_extensions", "insert_213",
    "is_extension", "linear_extensions", "list_avoiders",
    "catalan", "count_formula", "fibonacci", "fuss_catalan", "hook_count",
    "inv_bounds_1243",
    "children_labels", "count_at_depth", "grow_extensions", "saw_label",
    "avoids", "complement", "contains", "descents", "inv", "maj", "perm",
    "reverse", "reverse_complement",
    "build", "canonicalize", "parse_poset_spec", "saw_poset", "zip_poset",
    "F_poly", "maj_q_catalan", "q_catalan", "q_catalan_tilde", "q_int",
    "stat_gf",
    "a_vector", "b_matrix", "char_poly", "count_2143", "recurrence_extend",
]
