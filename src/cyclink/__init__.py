"""Linking numbers of curve lifts in cyclic branched covers.

The package takes a combinatorial link diagram (one branch component plus
marked curves), builds the sheet structure of the q-fold cyclic branched
cover, solves for rational 2-chains bounding lifted curves, and reads off
pairwise linking numbers of the lifts, together with least integral
bounding multiples and a satellite concordance obstruction built on top.

`import cyclink` loads none of its modules. A public name, or a module
named in `_EXPORTS`, is imported on first use (PEP 562) and then bound
here, so a CLI process compiles only what its subcommand runs.
"""

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "cover": (
        "CoverStructure",
        "build_cover",
        "lift_components",
        "resolve_coset",
        "wrap_sheet",
    ),
    "diagram": (
        "FORMAT",
        "LinkComponent",
        "LinkDiagram",
        "OverstrandRef",
        "Underpass",
        "diagram_from_dict",
        "diagram_to_dict",
        "load_diagram",
        "mirror",
        "normalize_writhe",
        "pairwise_linking",
        "save_diagram",
        "validate",
        "writhe",
    ),
    "homology": (
        "TwoChain",
        "assemble_system",
        "bounding_chain",
        "bounding_chains",
        "minimal_bounding_multiple",
        "verify_boundary",
    ),
    "linking": (
        "LinkingReport",
        "UndefinedEntry",
        "linking_matrix",
        "linking_number",
    ),
    "obstruction": ("ObstructionVerdict", "evaluate_obstruction", "is_prime_power"),
    "rational_linalg": (
        "format_rational",
        "minimal_scalar_integer_solution",
        "nullspace_basis",
        "parse_rational",
        "solve_many",
        "solve_particular",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name):
    from importlib import import_module

    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
