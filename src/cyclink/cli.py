"""Command line front end.

Exit codes: 0 for success (mathematically undefined results are reported
in-band, not as failures), 2 for malformed input or violated preconditions,
1 for internal errors.

Each call is a fresh process, so each handler imports only the modules it
runs: `validate` compiles `diagram` alone, and only `obstruct` compiles
`obstruction`. tests/test_cli.py pins each subcommand's module set.
"""

from __future__ import annotations

import argparse
import json
import sys

# A linking table that `matrix` or `obstruct --json` would print above this
# many characters is refused, exit 2, before more than its row 0 is
# formatted. At stevedore_w0 q=1999, the row cap, the eta x eta table is
# 1999 x 1999 rationals of about 1,050 characters, 4.2 * 10**9 in all,
# which ran out of memory. The corpus and sweep tables take at most about
# 1,100 characters, and twobridge_m2 q=200 about 2 * 10**7.
MAX_TABLE_CHARS = 10**8


def _coset_text(coset) -> str:
    return "{" + ",".join(str(s) for s in coset) + "}"


def _entry_texts(entries) -> list[str]:
    """The text of each linking entry: a rational, or why it is undefined."""
    from .linking import UndefinedEntry
    from .rational_linalg import format_rational

    return [
        f"undefined ({e.reason})" if isinstance(e, UndefinedEntry) else format_rational(e)
        for e in entries
    ]


def _refuse_table(report) -> None:
    """ValueError if the report's table is above MAX_TABLE_CHARS. Every row
    is a rotation of row 0 (linking_matrix), so the table's entries take
    g_a times row 0's characters."""
    size = len(report.cosets_a) * sum(map(len, _entry_texts(report.entries[0])))
    if size > MAX_TABLE_CHARS:
        raise ValueError(
            f"the linking table would be {len(report.cosets_a)} x {len(report.cosets_b)} "
            f"entries, about {size} characters, above the limit of {MAX_TABLE_CHARS}"
        )


def _cover(args):
    from .cover import build_cover
    from .diagram import load_diagram

    return build_cover(load_diagram(args.file), args.q)


def _emit(args, data, text) -> int:
    print(json.dumps(data) if args.json else text)
    return 0


def _undefined(args) -> int:
    from .linking import NOT_NULL_HOMOLOGOUS, UndefinedEntry

    entry = UndefinedEntry(NOT_NULL_HOMOLOGOUS)
    return _emit(args, entry.to_json(), _entry_texts([entry])[0])


def cmd_validate(args) -> int:
    from .diagram import load_diagram, validate

    problems = validate(load_diagram(args.file))
    _emit(args, {"valid": not problems, "violations": problems}, "\n".join(problems) or "ok")
    return 0 if not problems else 2


def cmd_info(args) -> int:
    from .diagram import pairwise_linking, writhe

    # Two branches, so that --json never builds the text of every lift.
    cover = _cover(args)
    diagram = cover.diagram
    branch = diagram.branch
    if args.json:
        comps = []
        for ci, comp in enumerate(diagram.components):
            entry = {
                "name": comp.name,
                "arcs": comp.arc_count,
                "underpasses": len(comp.underpasses),
                "writhe": writhe(diagram, ci),
            }
            if ci == branch:
                entry["branch"] = True
            else:
                entry["linking_with_branch"] = pairwise_linking(diagram, ci, branch)
                entry["lbar"] = cover.lbar[ci]
                entry["lifts"] = cover.components_of[ci]  # json writes tuples as arrays
            comps.append(entry)
        return _emit(args, {"q": args.q, "branch": branch, "components": comps}, None)
    print(f"degree q={args.q}")
    for ci, comp in enumerate(diagram.components):
        role = " (branch)" if ci == branch else ""
        print(
            f"{ci}: {comp.name}{role} arcs={comp.arc_count} "
            f"writhe={writhe(diagram, ci)}"
        )
        if ci != branch:
            lifts = " ".join(_coset_text(c) for c in cover.components_of[ci])
            print(
                f"   lk(branch)={pairwise_linking(diagram, ci, branch)} "
                f"lbar={cover.lbar[ci]} lifts: {lifts}"
            )
    return 0


def cmd_chain(args) -> int:
    from .homology import bounding_chain
    from .rational_linalg import format_rational

    cover = _cover(args)
    chain = bounding_chain(cover, args.curve, args.coset)
    if chain is None:
        return _undefined(args)
    data = {**chain.to_dict(), "curve_name": cover.diagram.components[chain.curve].name}
    text = " | ".join(", ".join(map(format_rational, row)) for row in chain.x)
    return _emit(args, data, f"({text})")


def cmd_lk(args) -> int:
    from .cover import _lift
    from .linking import UndefinedEntry, _entry

    cover = _cover(args)
    result = _entry(cover, *_lift(cover, args.a, args.i), *_lift(cover, args.b, args.j))
    text = _entry_texts([result])[0]
    data = result.to_json() if isinstance(result, UndefinedEntry) else {"lk": text}
    return _emit(args, data, text)


def cmd_matrix(args) -> int:
    from .linking import linking_matrix

    report = linking_matrix(_cover(args), args.a, args.b)
    _refuse_table(report)
    if args.json:
        return _emit(args, report.to_dict(), None)
    table = [["", *map(_coset_text, report.cosets_b)]]
    table += [[_coset_text(c), *_entry_texts(row)] for c, row in zip(report.cosets_a, report.entries)]
    return _emit(args, None, "\n".join("\t".join(cells) for cells in table))


def cmd_order(args) -> int:
    from .homology import minimal_bounding_multiple

    order = minimal_bounding_multiple(_cover(args), args.curve, args.coset)
    if order is None:
        return _undefined(args)
    return _emit(args, {"order": order}, order)


def cmd_obstruct(args) -> int:
    from .diagram import load_diagram
    from .obstruction import evaluate_obstruction

    verdict = evaluate_obstruction(load_diagram(args.file), args.q)
    if args.json:  # the text holds no matrix, so only --json formats it
        _refuse_table(verdict.matrix)
        return _emit(args, verdict.to_dict(), None)
    flags = " ".join(
        f"{name}={'yes' if ok else 'no'}" for name, ok in verdict.hypotheses.items()
    )
    return _emit(args, None, (
        f"q={verdict.q} winding={verdict.winding} order={verdict.order}\n"
        f"hypotheses: {flags}\n"
        f"sign profile: {verdict.sign_profile}\n"
        f"verdict: {verdict.verdict}"
    ))


# chain and order name one lift: a curve and a sheet in it.
_LIFT_OPTIONS = (
    ("--curve", None, "component name or index"),
    ("--coset", int, "sheet in the lift"),
)

# (name, handler, help, takes -q, required options as (flag, type, help))
SUBCOMMANDS = (
    ("validate", cmd_validate, "check a diagram file", False, ()),
    ("info", cmd_info, "components, walks and lift cosets", True, ()),
    ("chain", cmd_chain, "rational chain bounding one lifted curve", True, _LIFT_OPTIONS),
    ("lk", cmd_lk, "linking number of two lifted curves", True, (
        ("--a", None, "first curve (name or index)"),
        ("--i", int, "sheet in the first lift"),
        ("--b", None, "second curve (name or index)"),
        ("--j", int, "sheet in the second lift"),
    )),
    ("matrix", cmd_matrix, "all pairwise lift linking numbers", True, (
        ("--a", None, "row curve (name or index)"),
        ("--b", None, "column curve (name or index)"),
    )),
    ("order", cmd_order, "least integral bounding multiple", True, _LIFT_OPTIONS),
    ("obstruct", cmd_obstruct, "satellite concordance obstruction", True, ()),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclink",
        description=(
            "Linking numbers of lifted curves in cyclic branched covers, "
            "from a combinatorial link diagram."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, with_q, options in SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="diagram JSON file")
        if with_q:
            p.add_argument("-q", type=int, required=True, help="cover degree")
        p.add_argument("--json", action="store_true", help="emit JSON")
        for flag, kind, text in options:
            p.add_argument(flag, type=kind, required=True, help=text)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # last resort: report, do not traceback
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
