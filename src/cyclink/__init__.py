"""Linking numbers of curve lifts in cyclic branched covers.

The package takes a combinatorial link diagram (one branch component plus
marked curves), builds the sheet structure of the q-fold cyclic branched
cover, solves for rational 2-chains bounding lifted curves, and reads off
pairwise linking numbers of the lifts, together with least integral
bounding multiples and a satellite concordance obstruction built on top.
"""

from .cover import (
    CoverStructure,
    build_cover,
    lift_components,
    resolve_coset,
    wrap_sheet,
)
from .diagram import (
    FORMAT,
    LinkComponent,
    LinkDiagram,
    OverstrandRef,
    Underpass,
    diagram_from_dict,
    diagram_to_dict,
    load_diagram,
    mirror,
    normalize_writhe,
    pairwise_linking,
    save_diagram,
    validate,
    writhe,
)
from .homology import (
    TwoChain,
    assemble_system,
    bounding_chain,
    bounding_chains,
    minimal_bounding_multiple,
    verify_boundary,
)
from .linking import (
    LinkingReport,
    UndefinedEntry,
    linking_matrix,
    linking_number,
)
from .obstruction import ObstructionVerdict, evaluate_obstruction, is_prime_power
from .rational_linalg import (
    format_rational,
    minimal_scalar_integer_solution,
    nullspace_basis,
    parse_rational,
    solve_many,
    solve_particular,
)

__version__ = "0.1.0"

__all__ = [
    "CoverStructure",
    "FORMAT",
    "LinkComponent",
    "LinkDiagram",
    "LinkingReport",
    "ObstructionVerdict",
    "OverstrandRef",
    "TwoChain",
    "UndefinedEntry",
    "Underpass",
    "assemble_system",
    "bounding_chain",
    "bounding_chains",
    "build_cover",
    "diagram_from_dict",
    "diagram_to_dict",
    "evaluate_obstruction",
    "format_rational",
    "is_prime_power",
    "lift_components",
    "linking_matrix",
    "linking_number",
    "load_diagram",
    "minimal_bounding_multiple",
    "minimal_scalar_integer_solution",
    "mirror",
    "normalize_writhe",
    "nullspace_basis",
    "pairwise_linking",
    "parse_rational",
    "resolve_coset",
    "save_diagram",
    "solve_many",
    "solve_particular",
    "validate",
    "verify_boundary",
    "wrap_sheet",
    "writhe",
    "__version__",
]
