"""Command line interface: subcommands, exit codes, output formats."""

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import CORPUS_AND_SWEEP, clasped_wire_diagram, fixture, hopf_pair_beside_unknot
from cyclink import (
    LinkComponent,
    LinkDiagram,
    LinkingReport,
    ObstructionVerdict,
    OverstrandRef,
    TwoChain,
    Underpass,
    build_cover,
    linking_matrix,
    normalize_writhe,
    save_diagram,
    verify_boundary,
)
from cyclink import cli
from cyclink.cli import main
from cyclink.fixtures import fixture_diagram_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def clasp_file(tmp_path):
    path = tmp_path / "clasp.json"
    save_diagram(normalize_writhe(clasped_wire_diagram(), 6), path)
    return str(path)


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", str(fixture_diagram_path("cable_n3_k0")))
    assert code == 0
    assert out.strip() == "ok"


def test_validate_json(capsys):
    code, out, _ = run(
        capsys, "validate", str(fixture_diagram_path("cable_n3_k0")), "--json"
    )
    assert code == 0
    assert json.loads(out) == {"valid": True, "violations": []}


def test_validate_reports_violations(capsys, tmp_path):
    path = tmp_path / "bad.json"
    data = json.loads(fixture_diagram_path("cable_n3_k0").read_text())
    data["branch"] = 9
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 2
    assert "branch" in out


@pytest.mark.parametrize("field, value", [("sign", True), ("arc", 1.9)])
@pytest.mark.parametrize("fmt", [(), ("--json",)])
def test_validate_rejects_coercible_values(capsys, tmp_path, field, value, fmt):
    path = tmp_path / "coerced.json"
    data = json.loads(fixture_diagram_path("cable_n3_k0").read_text())
    up = data["components"][0]["underpasses"][0]
    (up if field == "sign" else up["over"])[field] = value
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "validate", str(path), *fmt)
    assert code == 2
    assert out == ""
    assert f"{field} must be an integer" in err


@pytest.mark.parametrize("fmt", [(), ("--json",)])
def test_validate_reports_asymmetric_linking(capsys, tmp_path, fmt):
    # K passes under eta once; eta never passes under K.
    path = tmp_path / "one_sided.json"
    save_diagram(
        LinkDiagram(
            (
                LinkComponent("K", (Underpass(1, OverstrandRef(1, 0)),)),
                LinkComponent("eta", ()),
            ),
            0,
        ),
        path,
    )
    code, out, _ = run(capsys, "validate", str(path), *fmt)
    assert code == 2
    message = "components 0 and 1 link 1 times read from 0 but 0 times read from 1"
    if fmt:
        assert json.loads(out) == {"valid": False, "violations": [message]}
    else:
        assert out.strip() == message
    code, _, err = run(capsys, "info", str(path), "-q", "1")
    assert code == 2
    assert message in err


def test_missing_file_is_a_usage_error(capsys):
    code, _, err = run(capsys, "validate", "/no/such/file.json")
    assert code == 2
    assert "error:" in err


def test_malformed_json_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "chain", str(path), "-q", "2", "--curve", "eta", "--coset", "1")
    assert code == 2


def test_deeply_nested_json_is_a_usage_error(capsys, tmp_path):
    # The JSON parser recurses once per level and runs out of stack.
    path = tmp_path / "nested.json"
    path.write_text("[" * 200_000)
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert err.startswith("error: not valid JSON: "), err


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert run(capsys, "frobnicate", "x.json")[0] == 2


def test_missing_required_option_is_a_usage_error(capsys):
    code, _, _ = run(capsys, "lk", str(fixture_diagram_path("cable_n3_k0")), "-q", "3")
    assert code == 2


def test_lk_prints_a_bare_rational(capsys):
    code, out, _ = run(
        capsys,
        "lk",
        str(fixture_diagram_path("cable_n3_k0")),
        "-q", "3",
        "--a", "eta", "--i", "1",
        "--b", "eta", "--j", "2",
    )
    assert code == 0
    assert out.strip() == "1"


def test_lk_json(capsys):
    code, out, _ = run(
        capsys,
        "lk",
        str(fixture_diagram_path("stevedore_w0")),
        "-q", "2",
        "--a", "eta", "--i", "1",
        "--b", "eta", "--j", "2",
    )
    assert (code, out.strip()) == (0, "2/9")
    code, out, _ = run(
        capsys,
        "lk",
        str(fixture_diagram_path("stevedore_w0")),
        "-q", "2",
        "--a", "eta", "--i", "1",
        "--b", "eta", "--j", "2",
        "--json",
    )
    assert code == 0
    assert json.loads(out) == {"lk": "2/9"}


def test_order_prints_the_multiple(capsys):
    code, out, _ = run(
        capsys,
        "order",
        str(fixture_diagram_path("stevedore_w0")),
        "-q", "5",
        "--curve", "eta", "--coset", "1",
    )
    assert code == 0
    assert out.strip() == "31"


def test_order_json(capsys):
    code, out, _ = run(
        capsys,
        "order",
        str(fixture_diagram_path("stevedore_w0")),
        "-q", "2",
        "--curve", "eta", "--coset", "1",
        "--json",
    )
    assert code == 0
    assert json.loads(out) == {"order": 9}


def test_degree_one_lk_is_classical(capsys, tmp_path):
    path = tmp_path / "pair.json"
    save_diagram(hopf_pair_beside_unknot(), path)
    code, out, _ = run(
        capsys,
        "lk", str(path),
        "-q", "1",
        "--a", "eta1", "--i", "1",
        "--b", "eta2", "--j", "1",
    )
    assert (code, out.strip()) == (0, "1")


def test_chain_text_groups_by_arc(capsys):
    code, out, _ = run(
        capsys,
        "chain",
        str(fixture_diagram_path("cable_n3_k0")),
        "-q", "3",
        "--curve", "eta", "--coset", "2",
    )
    assert code == 0
    text = out.strip()
    assert text.startswith("(") and text.endswith(")")
    diagram_arcs = 6
    assert text.count("|") == diagram_arcs - 1
    groups = text[1:-1].split("|")
    assert all(len(g.split(",")) == 3 for g in groups)


def test_chain_json_round_trips_and_verifies(capsys):
    code, out, _ = run(
        capsys,
        "chain",
        str(fixture_diagram_path("stevedore_w0")),
        "-q", "4",
        "--curve", "eta", "--coset", "3",
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["curve_name"] == "eta"
    chain = TwoChain.from_dict(data)
    from conftest import fixture

    cover = build_cover(fixture("stevedore_w0").diagram, 4)
    assert chain.coset == (3,)
    assert verify_boundary(cover, chain)


def test_matrix_text_and_json_agree(capsys):
    args = (
        "matrix",
        str(fixture_diagram_path("stevedore_w0")),
        "-q", "3",
        "--a", "eta", "--b", "eta",
    )
    code, text_out, _ = run(capsys, *args)
    assert code == 0
    code, json_out, _ = run(capsys, *args, "--json")
    assert code == 0
    data = json.loads(json_out)
    lines = text_out.strip().splitlines()[1:]
    for row_line, row in zip(lines, data["entries"]):
        cells = row_line.split("\t")[1:]
        for cell, entry in zip(cells, row):
            if isinstance(entry, dict):
                assert cell == f"undefined ({entry['undefined']})"
            else:
                assert cell == entry


def test_obstruct_text_and_json(capsys):
    args = (
        "obstruct",
        str(fixture_diagram_path("stevedore_w0")),
        "-q", "2",
    )
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert "verdict: obstructed" in out
    assert "winding=0" in out
    code, out, _ = run(capsys, *args, "--json")
    data = json.loads(out)
    assert data["verdict"] == "obstructed"
    assert data["q"] == 2


def test_obstruct_text_formats_no_matrix(capsys, monkeypatch):
    # The text prints no matrix, and at the row cap, stevedore_w0 q=1999,
    # formatting the 1999 x 1999 table it would not print ran out of memory.
    def refuse(self):
        raise AssertionError("the text mode formatted the matrix")

    monkeypatch.setattr(ObstructionVerdict, "to_dict", refuse)
    monkeypatch.setattr(LinkingReport, "to_dict", refuse)
    code, out, err = run(capsys, "obstruct", str(fixture_diagram_path("stevedore_w0")), "-q", "5")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "q=5 winding=0 order=31",
        "hypotheses: prime_power_degree=yes degree_divides_winding=yes integral_lifts=no odd_order_or_winding_multiple=yes",
        "sign profile: all-nonneg-not-zero",
        "verdict: obstructed",
    ]


@pytest.mark.parametrize(
    "command, options",
    [("matrix", ("--a", "eta", "--b", "eta")), ("matrix", ("--a", "eta", "--b", "eta", "--json")), ("obstruct", ("--json",))],
)
def test_a_table_above_the_bound_is_refused_before_it_is_formatted(capsys, monkeypatch, command, options):
    # stevedore_w0 q=3: three cosets of eta, so the table is 3 x 3 and each
    # row a rotation of row 0, "undefined (self-pairing)", 1/7 and 1/7: 30
    # characters, 90 for the table.
    path = str(fixture_diagram_path("stevedore_w0"))
    monkeypatch.setattr(cli, "MAX_TABLE_CHARS", 89)
    formatted = []
    monkeypatch.setattr(LinkingReport, "to_dict", lambda self: formatted.append(self))
    code, out, err = run(capsys, command, path, "-q", "3", *options)
    assert (code, out, formatted) == (2, "", [])
    assert err == "error: the linking table would be 3 x 3 entries, about 90 characters, above the limit of 89\n"
    # At the bound it prints; the obstruction's text holds no table.
    monkeypatch.undo()
    monkeypatch.setattr(cli, "MAX_TABLE_CHARS", 90)
    assert run(capsys, command, path, "-q", "3", *options)[0] == 0
    monkeypatch.setattr(cli, "MAX_TABLE_CHARS", 0)
    code, out, err = run(capsys, "obstruct", path, "-q", "3")
    assert (code, err) == (0, "") and out.startswith("q=3 winding=0 ")


@pytest.mark.parametrize("name, q", CORPUS_AND_SWEEP)
def test_every_corpus_and_sweep_table_is_below_the_bound(name, q):
    cover = build_cover(fixture(name).diagram, q)
    curves = [ci for ci in range(len(cover.diagram.components)) if ci != cover.diagram.branch]
    for a in curves:
        for b in curves:
            cli._refuse_table(linking_matrix(cover, a, b))


def test_info_lists_lifts(capsys):
    code, out, _ = run(
        capsys, "info", str(fixture_diagram_path("stevedore_w2")), "-q", "4", "--json"
    )
    assert code == 0
    data = json.loads(out)
    eta = next(c for c in data["components"] if c["name"] == "eta")
    assert eta["lbar"] == 2
    assert eta["lifts"] == [[1, 3], [2, 4]]
    k = next(c for c in data["components"] if c["name"] == "K")
    assert k.get("branch") is True


STEVEDORE_Q3_SESSION = {
    "info": (
        ("-q", "3"),
        "degree q=3\n"
        "0: eta arcs=2 writhe=0\n"
        "   lk(branch)=0 lbar=0 lifts: {1} {2} {3}\n"
        "1: K (branch) arcs=10 writhe=0\n",
    ),
    "lk": (("-q", "3", "--a", "eta", "--i", "1", "--b", "eta", "--j", "2"), "1/7\n"),
    "matrix": (
        ("-q", "3", "--a", "eta", "--b", "eta"),
        "\t{1}\t{2}\t{3}\n"
        "{1}\tundefined (self-pairing)\t1/7\t1/7\n"
        "{2}\t1/7\tundefined (self-pairing)\t1/7\n"
        "{3}\t1/7\t1/7\tundefined (self-pairing)\n",
    ),
    "order": (("-q", "3", "--curve", "eta", "--coset", "1"), "7\n"),
    "obstruct": (
        ("-q", "3"),
        "q=3 winding=0 order=7\n"
        "hypotheses: prime_power_degree=yes degree_divides_winding=yes "
        "integral_lifts=no odd_order_or_winding_multiple=yes\n"
        "sign profile: all-nonneg-not-zero\n"
        "verdict: obstructed\n",
    ),
}


@pytest.mark.parametrize("command", sorted(STEVEDORE_Q3_SESSION))
def test_readme_session_text_is_exact(capsys, command):
    options, expected = STEVEDORE_Q3_SESSION[command]
    path = str(fixture_diagram_path("stevedore_w0"))
    assert run(capsys, command, path, *options) == (0, expected, "")


STEVEDORE_Q3_MATRIX_JSON = (
    '{"a": 0, "b": 0, "cosets_a": [[1], [2], [3]], "cosets_b": [[1], [2], [3]], "entries": '
    '[[{"undefined": "self-pairing"}, "1/7", "1/7"], ["1/7", {"undefined": "self-pairing"}, "1/7"], '
    '["1/7", "1/7", {"undefined": "self-pairing"}]]}'
)


@pytest.mark.parametrize(
    "command, options, expected",
    [
        ("matrix", ("--a", "eta", "--b", "eta"), STEVEDORE_Q3_MATRIX_JSON),
        (
            "obstruct",
            (),
            '{"q": 3, "winding": 0, "order": 7, "hypotheses": {"prime_power_degree": true, '
            '"degree_divides_winding": true, "integral_lifts": false, "odd_order_or_winding_multiple": true}, '
            '"sign_profile": "all-nonneg-not-zero", "verdict": "obstructed", "matrix": '
            + STEVEDORE_Q3_MATRIX_JSON + "}",
        ),
    ],
)
def test_readme_session_json_is_exact(capsys, command, options, expected):
    path = str(fixture_diagram_path("stevedore_w0"))
    assert run(capsys, command, path, "-q", "3", *options, "--json") == (0, expected + "\n", "")


# The covers whose factorization merges the most branch arcs (stevedore_w20
# q=5 from 30 arcs to 8, cable_n7_k6 q=7 from 26 to 19): the sha256 and
# length of each --json output, taken before the merge.
MERGED_COVER_JSON = [
    ("stevedore_w20", "chain", ("-q", "5", "--curve", "eta", "--coset", "1"), 1333,
     "0a0401e56c6b69e1391f923d79ee78041f6694957ba077fb1724a3584fb3943c"),
    ("stevedore_w20", "matrix", ("-q", "5", "--a", "eta", "--b", "eta"), 493,
     "3a2dd4644554561aead4a7daa1a478240c04e033079a2652389ddd9f731ca89a"),
    ("stevedore_w20", "obstruct", ("-q", "5"), 745,
     "4ab25d9de7d2eba8361b99b36c90cf791f0e20e24ec1f020c80cdccb8ebece62"),
    ("cable_n7_k6", "chain", ("-q", "7", "--curve", "eta", "--coset", "1"), 1029,
     "4fcb7a23d9c2b82625f788c32da9539d36ec45f040ed7a727b725b9897893bb6"),
    ("cable_n7_k6", "matrix", ("-q", "7", "--a", "eta", "--b", "eta"), 611,
     "03f081f3f93f5c155cc67b4fb6a09f3d625ac0a7e80469f1ff571a8e1d3e516b"),
    ("cable_n7_k6", "obstruct", ("-q", "7"), 860,
     "a4efe79e50913621c5dd03838e342f75ce144121d5d20b958ccd3086d022c328"),
]


@pytest.mark.parametrize("name, command, options, size, digest", MERGED_COVER_JSON)
def test_json_bytes_on_the_most_merged_covers(capsys, name, command, options, size, digest):
    code, out, err = run(capsys, command, str(fixture_diagram_path(name)), *options, "--json")
    assert (code, err) == (0, "")
    data = out.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


def test_validate_text_prints_one_violation_per_line(capsys, tmp_path):
    path = tmp_path / "two_bad_arcs.json"
    data = json.loads(fixture_diagram_path("cable_n3_k0").read_text())
    for comp in data["components"]:
        comp["underpasses"][0]["over"]["arc"] = 99
    path.write_text(json.dumps(data))
    assert run(capsys, "validate", str(path)) == (
        2,
        "component 0 (eta) underpass 0: overstrand arc 99 out of range for component 1 with 6 arcs\n"
        "component 1 (K) underpass 0: overstrand arc 99 out of range for component 0 with 3 arcs\n",
        "",
    )


@pytest.mark.parametrize("fmt", [(), ("--json",)])
def test_branch_curve_is_refused_with_one_message(capsys, fmt):
    path = str(fixture_diagram_path("stevedore_w0"))
    for command, *options in [
        ("chain", "--curve", "K", "--coset", "1"),
        ("lk", "--a", "K", "--i", "1", "--b", "eta", "--j", "1"),
        ("lk", "--a", "eta", "--i", "1", "--b", "K", "--j", "1"),
        ("order", "--curve", "K", "--coset", "1"),
        ("matrix", "--a", "K", "--b", "eta"),
        ("matrix", "--a", "eta", "--b", "K"),
    ]:
        assert run(capsys, command, path, "-q", "3", *options, *fmt) == (
            2, "", "error: component 1 is the branch; it lifts to the branch locus, not to curves\n"
        ), command


def test_a_padded_component_index_is_a_usage_error(capsys):
    path = str(fixture_diagram_path("stevedore_w0"))
    args = ("chain", path, "-q", "3", "--coset", "1")
    assert run(capsys, *args, "--curve", " 1") == (2, "", "error: no component named ' 1'\n")
    assert run(capsys, *args, "--curve", "0")[0] == 0


def test_undefined_values_are_in_band_success(capsys, clasp_file):
    code, out, _ = run(
        capsys,
        "lk", clasp_file,
        "-q", "6",
        "--a", "eta", "--i", "1",
        "--b", "eta", "--j", "2",
    )
    assert code == 0
    assert out.strip() == "undefined (not rationally null-homologous)"

    code, out, _ = run(
        capsys, "order", clasp_file, "-q", "6", "--curve", "eta", "--coset", "1"
    )
    assert code == 0
    assert out.strip() == "undefined (not rationally null-homologous)"

    code, out, _ = run(
        capsys, "chain", clasp_file, "-q", "6",
        "--curve", "eta", "--coset", "1", "--json",
    )
    assert code == 0
    assert json.loads(out) == {"undefined": "not rationally null-homologous"}


def test_undivisible_writhe_is_a_usage_error_with_hint(capsys, tmp_path):
    path = tmp_path / "raw.json"
    save_diagram(clasped_wire_diagram(), path)  # writhe 3, not 0 mod 6
    code, _, err = run(
        capsys, "chain", str(path), "-q", "6", "--curve", "eta", "--coset", "1"
    )
    assert code == 2
    assert "normalize_writhe" in err


def test_output_is_deterministic(capsys):
    args = (
        "matrix",
        str(fixture_diagram_path("twobridge_m0")),
        "-q", "3",
        "--a", "eta", "--b", "eta",
        "--json",
    )
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second


def test_oversized_cover_system_is_a_usage_error(capsys):
    # 10**5 sheets over stevedore_w0's branch arcs give a system of about
    # 10**12 entries in its (rows x columns) shape, far above the cap; it is
    # refused before any row is built.
    start = time.perf_counter()
    code, out, err = run(
        capsys,
        "chain", str(fixture_diagram_path("stevedore_w0")),
        "-q", "100000", "--curve", "eta", "--coset", "1",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: the cover system would be ")
    assert "above the limit" in err
    assert time.perf_counter() - start < 10


def test_cli_import_does_not_import_logging():
    # Each CLI call is a fresh process; logging would add to every start,
    # and the `cyclink` DEBUG records need it only once a program has
    # configured logging. dataclasses, and the inspect it imports, cost
    # more still, for code generation the value classes do not need.
    # cyclink.alexander is compiled only once a cover is first solved, and
    # the solving modules only by the subcommands that run them.
    src = Path(__file__).resolve().parents[1] / "src"
    banned = (
        "logging", "dataclasses", "inspect", "cyclink.alexander", "cyclink.homology",
        "cyclink.rational_linalg", "cyclink.linking", "cyclink.obstruction", "fractions",
    )
    proc = subprocess.run(
        [
            sys.executable, "-c",
            f"import sys, cyclink.cli; print([m for m in {banned!r} if m in sys.modules])",
        ],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.stdout == "[]\n", proc.stderr


_DIAGRAM_ONLY = ["cyclink", "cyclink.cli", "cyclink.diagram"]
_SOLVED = [*_DIAGRAM_ONLY, "cyclink.alexander", "cyclink.cover", "cyclink.homology",
           "cyclink.rational_linalg", "fractions"]


_MODULES_OF = [
    (["validate"], _DIAGRAM_ONLY),
    (["info", "-q", "5"], [*_DIAGRAM_ONLY, "cyclink.cover"]),
    (["chain", "-q", "5", "--curve", "eta", "--coset", "1"], _SOLVED),
    (["order", "-q", "5", "--curve", "eta", "--coset", "1"], _SOLVED),
    (["lk", "-q", "5", "--a", "eta", "--i", "1", "--b", "eta", "--j", "2"], [*_SOLVED, "cyclink.linking"]),
    (["matrix", "-q", "5", "--a", "eta", "--b", "eta"], [*_SOLVED, "cyclink.linking"]),
    (["obstruct", "-q", "5"], [*_SOLVED, "cyclink.linking", "cyclink.obstruction"]),
]


@pytest.mark.parametrize("argv, modules", _MODULES_OF, ids=[argv[0] for argv, _ in _MODULES_OF])
def test_each_subcommand_loads_only_the_modules_it_runs(argv, modules):
    # A fresh `python -S` process, so that sys.modules holds only what the
    # call imported.
    src = Path(__file__).resolve().parents[1] / "src"
    argv = [argv[0], str(fixture_diagram_path("stevedore_w5")), *argv[1:]]
    proc = subprocess.run(
        [
            sys.executable, "-S", "-c",
            "import json, sys; from cyclink import cli; code = cli.main(sys.argv[1:]); "
            "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('cyclink') or m == 'fractions')]))",
            *argv,
        ],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.stderr == ""
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, sorted(modules)]


def _limit_address_space():
    cap = 500 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def test_info_at_a_million_sheets_fits_in_500_mb():
    # The cover keeps one integer offset per underpass, so only the lift
    # list grows with q.
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [
            sys.executable, "-m", "cyclink.cli",
            "info", str(fixture_diagram_path("stevedore_w0")),
            "-q", "1000000", "--json",
        ],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    eta = next(c for c in data["components"] if c["name"] == "eta")
    assert len(eta["lifts"]) == 1000000


@pytest.mark.parametrize(
    "argv",
    [
        ["info", "-q", "30000000", "--json"],
        ["chain", "-q", "30000000", "--curve", "eta", "--coset", "1"],
    ],
)
def test_degree_above_the_limit_is_a_usage_error_within_500_mb(argv):
    # 3 * 10**7 sheets would need one lift tuple per sheet; the degree is
    # refused before any of them is built, so the 500 MB cap is never hit.
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [
            sys.executable, "-m", "cyclink.cli",
            argv[0], str(fixture_diagram_path("stevedore_w0")), *argv[1:],
        ],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "error: cover degree q=30000000 is above the limit of 1000000 sheets\n"
