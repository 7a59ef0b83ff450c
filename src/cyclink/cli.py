"""Command line front end.

Exit codes: 0 for success (mathematically undefined results are reported
in-band, not as failures), 2 for malformed input or violated preconditions,
1 for internal errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cover import build_cover, resolve_coset
from .diagram import load_diagram, pairwise_linking, validate, writhe
from .homology import bounding_chain, minimal_bounding_multiple
from .linking import UndefinedEntry, _entry, linking_matrix
from .obstruction import evaluate_obstruction
from .rational_linalg import format_rational


def _chain_text(chain) -> str:
    groups = [", ".join(format_rational(v) for v in row) for row in chain.x]
    return "(" + " | ".join(groups) + ")"


def _coset_text(coset) -> str:
    return "{" + ",".join(str(s) for s in coset) + "}"


def _entry_text(entry) -> str:
    if isinstance(entry, UndefinedEntry):
        return f"undefined ({entry.reason})"
    return format_rational(entry)


def cmd_validate(args) -> int:
    diagram = load_diagram(args.file)
    problems = validate(diagram)
    if args.json:
        print(json.dumps({"valid": not problems, "violations": problems}))
    elif problems:
        for p in problems:
            print(p)
    else:
        print("ok")
    return 0 if not problems else 2


def cmd_info(args) -> int:
    diagram = load_diagram(args.file)
    cover = build_cover(diagram, args.q)
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
                entry["lifts"] = [list(c) for c in cover.components_of[ci]]
            comps.append(entry)
        print(json.dumps({"q": args.q, "branch": branch, "components": comps}))
        return 0
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
    diagram = load_diagram(args.file)
    cover = build_cover(diagram, args.q)
    chain = bounding_chain(cover, args.curve, args.coset)
    if chain is None:
        if args.json:
            print(json.dumps({"undefined": "not rationally null-homologous"}))
        else:
            print("undefined (not rationally null-homologous)")
        return 0
    if args.json:
        data = chain.to_dict()
        data["curve_name"] = diagram.components[chain.curve].name
        print(json.dumps(data))
    else:
        print(_chain_text(chain))
    return 0


def cmd_lk(args) -> int:
    diagram = load_diagram(args.file)
    cover = build_cover(diagram, args.q)
    ai = diagram.component_index(args.a)
    bi = diagram.component_index(args.b)
    coset_i = resolve_coset(cover, ai, args.i)
    coset_j = resolve_coset(cover, bi, args.j)
    result = _entry(cover, ai, coset_i, bi, coset_j)
    if args.json:
        if isinstance(result, UndefinedEntry):
            print(json.dumps(result.to_json()))
        else:
            print(json.dumps({"lk": format_rational(result)}))
    else:
        print(_entry_text(result))
    return 0


def cmd_matrix(args) -> int:
    diagram = load_diagram(args.file)
    cover = build_cover(diagram, args.q)
    report = linking_matrix(cover, args.a, args.b)
    if args.json:
        print(json.dumps(report.to_dict()))
        return 0
    header = "\t".join(_coset_text(c) for c in report.cosets_b)
    print("\t" + header)
    for coset, row in zip(report.cosets_a, report.entries):
        cells = "\t".join(_entry_text(e) for e in row)
        print(f"{_coset_text(coset)}\t{cells}")
    return 0


def cmd_order(args) -> int:
    diagram = load_diagram(args.file)
    cover = build_cover(diagram, args.q)
    order = minimal_bounding_multiple(cover, args.curve, args.coset)
    if order is None:
        if args.json:
            print(json.dumps({"undefined": "not rationally null-homologous"}))
        else:
            print("undefined (not rationally null-homologous)")
        return 0
    if args.json:
        print(json.dumps({"order": order}))
    else:
        print(order)
    return 0


def cmd_obstruct(args) -> int:
    diagram = load_diagram(args.file)
    verdict = evaluate_obstruction(diagram, args.q)
    if args.json:
        print(json.dumps(verdict.to_dict()))
        return 0
    print(f"q={verdict.q} winding={verdict.winding} order={verdict.order}")
    flags = " ".join(
        f"{name}={'yes' if ok else 'no'}" for name, ok in verdict.hypotheses.items()
    )
    print(f"hypotheses: {flags}")
    print(f"sign profile: {verdict.sign_profile}")
    print(f"verdict: {verdict.verdict}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclink",
        description=(
            "Linking numbers of lifted curves in cyclic branched covers, "
            "from a combinatorial link diagram."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_q=True):
        p.add_argument("file", help="diagram JSON file")
        if with_q:
            p.add_argument("-q", type=int, required=True, help="cover degree")
        p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("validate", help="check a diagram file")
    common(p, with_q=False)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("info", help="components, walks and lift cosets")
    common(p)
    p.set_defaults(handler=cmd_info)

    p = sub.add_parser("chain", help="rational chain bounding one lifted curve")
    common(p)
    p.add_argument("--curve", required=True, help="component name or index")
    p.add_argument("--coset", type=int, required=True, help="sheet in the lift")
    p.set_defaults(handler=cmd_chain)

    p = sub.add_parser("lk", help="linking number of two lifted curves")
    common(p)
    p.add_argument("--a", required=True, help="first curve (name or index)")
    p.add_argument("--i", type=int, required=True, help="sheet in the first lift")
    p.add_argument("--b", required=True, help="second curve (name or index)")
    p.add_argument("--j", type=int, required=True, help="sheet in the second lift")
    p.set_defaults(handler=cmd_lk)

    p = sub.add_parser("matrix", help="all pairwise lift linking numbers")
    common(p)
    p.add_argument("--a", required=True, help="row curve (name or index)")
    p.add_argument("--b", required=True, help="column curve (name or index)")
    p.set_defaults(handler=cmd_matrix)

    p = sub.add_parser("order", help="least integral bounding multiple")
    common(p)
    p.add_argument("--curve", required=True, help="component name or index")
    p.add_argument("--coset", type=int, required=True, help="sheet in the lift")
    p.set_defaults(handler=cmd_order)

    p = sub.add_parser("obstruct", help="satellite concordance obstruction")
    common(p)
    p.set_defaults(handler=cmd_obstruct)

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
