import contextlib
import hashlib
import io
import itertools
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from quivergrass import cli, degen, grass, homalg, specialize
from quivergrass.cli import UsageError, _poly_json, main, parse_quiver, parse_rep, parse_vec
from quivergrass.quiver import Interval, RepClass, TypeAQuiver


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_quiver_examples():
    q = parse_quiver("A2:F")
    assert (q.n, q.orient) == (2, "F")
    q = parse_quiver("A3:FB")
    assert (q.edge(0), q.edge(1)) == ((1, 2), (3, 2))
    assert parse_quiver("A1").n == 1
    assert parse_quiver("A1:").n == 1
    with pytest.raises(UsageError, match="position"):
        parse_quiver("A3:FFF")
    with pytest.raises(UsageError):
        parse_quiver("B2:F")
    with pytest.raises(UsageError):
        parse_quiver("A2:FX")


def test_parse_rep_examples():
    q = parse_quiver("A2:F")
    m = parse_rep("[1,2]x2,[1,1]", q)
    assert m == RepClass.from_pairs([(Interval(1, 2), 2), (Interval(1, 1), 1)])
    assert parse_rep("", q) == RepClass.empty()
    assert parse_rep("  ", q) == RepClass.empty()
    q3 = parse_quiver("A3:FF")
    with pytest.raises(UsageError, match="out of range"):
        parse_rep("[1,4]", q3)
    with pytest.raises(UsageError):
        parse_rep("[1,2]x0", q)
    with pytest.raises(UsageError):
        parse_rep("[1,2];[1,1]", q)


def test_parse_vec():
    assert parse_vec("1,2,3", 3) == (1, 2, 3)
    with pytest.raises(UsageError):
        parse_vec("1,2", 3)
    with pytest.raises(UsageError):
        parse_vec("1,x", 2)
    with pytest.raises(UsageError):
        parse_vec("1,-2", 2)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_parse_print_round_trip(data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    q = TypeAQuiver(n, "F" * (n - 1))
    intervals = [Interval(a, b) for a in range(1, n + 1) for b in range(a, n + 1)]
    pairs = data.draw(
        st.lists(
            st.tuples(st.sampled_from(intervals), st.integers(min_value=1, max_value=3)),
            min_size=0,
            max_size=4,
        )
    )
    m = RepClass.from_pairs(pairs)
    assert parse_rep(m.text(), q) == m


def test_cli_poset(capsys):
    code, out, _ = run_cli(capsys, "poset", "--quiver", "A3:FF", "--dim", "1,1,1")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["nodes"]) == 4
    assert len(payload["covers"]) == 4
    assert payload["dot"].startswith("digraph")
    assert '"[1,3]" -> ' in payload["dot"]


def test_cli_betti_pinned(capsys):
    code, out, _ = run_cli(
        capsys, "betti", "--quiver", "A2:F", "--rep", "[1,2]x3", "--sub", "1,2", "--method", "both"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pretty"] == "1 + 2q + 2q^2 + q^3"
    assert payload["coefficients"] == [1, 2, 2, 1]
    assert payload["match"] is True


def test_cli_betti_single_method(capsys):
    code, out, _ = run_cli(
        capsys, "betti", "--quiver", "A2:F", "--rep", "[1,1],[2,2]", "--sub", "1,1",
        "--method", "count",
    )
    assert code == 0
    assert json.loads(out)["pretty"] == "1"


def test_cli_strata(capsys):
    code, out, _ = run_cli(
        capsys, "strata", "--quiver", "A2:F", "--m", "[1,2]", "--n", "[1,1],[2,2]",
        "--sub", "1,0",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kernel"]["pretty"] == "1"
    nonzero = [r for r in payload["records"] if r["base"]["coefficients"]]
    assert nonzero == [
        {"f": [0, 0], "g": [1, 0], "i": 1, "shift": 0, "base": {"coefficients": [1], "pretty": "1"}}
    ]


def test_cli_verify_schema(capsys):
    code, out, _ = run_cli(capsys, "verify", "--quiver", "A2:F", "--dim", "1,1", "--jobs", "1")
    assert code == 0
    payload = json.loads(out)
    for field in ("quiver", "dim", "sub", "covers", "checks", "failures"):
        assert field in payload
    assert payload["failures"] == []
    assert payload["counts"]["covers"] == 1
    assert len(payload["checks"]) == 4


def test_cli_verify_output_is_deterministic(capsys, tmp_path):
    argv = ("verify", "--quiver", "A3:FB", "--dim", "1,1,1", "--jobs", "1")
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first[0] == 0
    assert first[1] == second[1]
    out_json = tmp_path / "verify.json"
    code, out, _ = run_cli(capsys, *argv, "--json", str(out_json))
    assert (code, out) == (0, "")
    assert out_json.read_bytes() == first[1].encode("utf-8")


def reference_verify_payload(q, d, summary):
    """The verify report as one dict, the way the report was built before it was streamed."""
    covers = dict.fromkeys((m, n) for m, n, _, _ in summary.kernels)
    return {
        "quiver": q.label(),
        "dim": list(d),
        "sub": None,
        "covers": [[m.text(), n.text()] for m, n in covers],
        "checks": [
            {
                "kind": "cover",
                "m": m.text(),
                "n": n.text(),
                "e": list(e),
                "kernel": _poly_json(kernel),
            }
            for m, n, e, kernel in summary.kernels
        ],
        "failures": list(summary.failures),
        "counts": {
            "nodes": summary.nodes,
            "covers": summary.covers,
            "cover_checks": summary.cover_checks,
            "bound_checks": summary.bound_checks,
        },
        "nonzero_kernels": [
            {"m": m.text(), "n": n.text(), "e": list(e), "kernel": _poly_json(kernel)}
            for m, n, e, kernel in summary.kernels
            if kernel
        ],
    }


def streamed_and_reference(monkeypatch, capsys, label, d, **changes):
    """The stdout of verify on (label, d) and the reference bytes of the summary it wrote.

    With changes given (failures, kernels), those fields of the summary are
    replaced first.
    """
    summaries = []

    def recording(q, d, jobs):
        summary = specialize.verify_theorem(q, d, jobs=jobs)._replace(**changes)
        summaries.append(summary)
        return summary

    monkeypatch.setattr(cli, "verify_theorem", recording)
    code, out, _ = run_cli(capsys, "verify", "--quiver", label, "--dim", ",".join(map(str, d)), "--jobs", "1")
    (summary,) = summaries
    assert code == (1 if summary.failures else 0)
    q = parse_quiver(label)
    return summary, out, json.dumps(reference_verify_payload(q, d, summary), indent=2, sort_keys=True) + "\n"


def test_cli_verify_streams_the_reference_bytes(monkeypatch, capsys):
    cases = []
    for n in range(1, 4):
        for flags in itertools.product("FB", repeat=n - 1):
            label = f"A{n}:{''.join(flags)}"
            cases += [(label, d) for d in itertools.product(range(3), repeat=n)]
    cases.append(("A4:FFF", (2, 2, 2, 2)))
    assert ("A1:", (0,)) in cases and len(cases) == 130
    for label, d in cases:
        summary, out, expected = streamed_and_reference(monkeypatch, capsys, label, d)
        same = out == expected  # a bare bool: pytest would diff megabytes of text
        assert same, (label, d)
        if (label, d) == ("A1:", (0,)):
            assert summary.covers == 0 and '"checks": []' in out
    # kernels with negative and multi-digit coefficients, and with none
    real = specialize.verify_theorem(parse_quiver("A2:F"), (1, 1), jobs=1).kernels
    odd = (grass.PoincarePoly((-3, 0, 12, -1)), grass.PoincarePoly.zero(), grass.PoincarePoly((-1,)))
    kernels = tuple((m, n, e, odd[i % 3]) for i, (m, n, e, _) in enumerate(real))
    summary, out, expected = streamed_and_reference(monkeypatch, capsys, "A2:F", (1, 1), kernels=kernels)
    assert summary.kernels == kernels and out == expected
    assert '"coefficients": [],' in out and '"pretty": "-3 + 12q^2 - q^3"' in out


def test_cli_verify_streams_awkward_failure_strings(monkeypatch, capsys):
    failures = (
        'monotonicity fails: "[1,2]" -> \\[2,2]\\ at e=(1, 0)',
        "kernel identity fails: \u00e9\u00e8 \u2264 \U0001d54f at e=(0, 1)",
        "a tab\tand a newline\n in one line",
    )
    summary, out, expected = streamed_and_reference(monkeypatch, capsys, "A2:F", (1, 1), failures=failures)
    assert summary.failures == failures
    assert out == expected
    assert json.loads(out)["failures"] == list(failures)


def test_cli_pbw_pinned(capsys):
    code, out, _ = run_cli(capsys, "pbw", "--n", "2", "--i", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["kernel"]["pretty"] == "q^2"
    assert payload["monotone"] and payload["identity_ok"]


STRATA_A2 = ("strata", "--quiver", "A2:F", "--m", "[1,2]", "--n", "[1,1],[2,2]")


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("pbw", "--n", "4", "--i", "1,2,3"), "7a80cdaa819d0b91f86a36e3b21d6b28c2a6d8eb90767d20029a14e7dbe0be52"),
        (("pbw", "--n", "5", "--i", "1,2,3,4"), "54077f08c7493e59acf6612575f471766b58ad3f60feeaa79688296f7d23602f"),
        (
            (
                "strata", "--quiver", "A4:FBF", "--m", "[1,1],[1,2],[2,2],[3,3],[3,4],[4,4]",
                "--n", "[1,1],[1,2],[2,2],[3,3]x2,[4,4]x2", "--sub", "1,1,1,1",
            ),
            "f26bf624f10d44432f1997caff4cc1e00c9f5bad9c18c300ad322d62ea43c341",
        ),
        (
            STRATA_A2 + ("--sub", "10,10"),
            "081c11ebbfdac2ccf2b990f71b10ccafec59d13724efe4d6777cb4f109e16bac",
        ),
    ],
    ids=["pbw-4-123", "pbw-5-1234", "strata-A4:FBF-1111", "strata-A2:F-10,10"],
)
def test_cli_stdout_bytes_pinned(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cli_usage_errors(capsys):
    code, _, err = run_cli(capsys, "poset", "--quiver", "A3:FFF", "--dim", "1,1,1")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "usage"
    code, _, err = run_cli(capsys, "betti", "--quiver", "A2:F", "--rep", "[1,4]", "--sub", "1,1")
    assert code == 2
    code, _, err = run_cli(capsys, "strata", "--quiver", "A3:FF", "--m", "[1,3]",
                           "--n", "[1,1],[2,2],[3,3]", "--sub", "1,0,0")
    assert code == 2  # not a cover: chain has two links
    for argv in (
        ("verify", "--quiver", "A2:F", "--dim", "1,1", "--jobs", "x"),
        ("verify", "--quiver", "A2:F", "--dim", "1,1", "--jobs", "0"),
        ("verify", "--quiver", "A2:F", "--dim", "1,1", "--jobs", "-1"),
        ("verify", "--dim", "1,1"),
        ("frobnicate",),
        ("betti", "--quiver", "A2:F", "--rep", "[1,1]", "--sub", "1,0", "--method", "guess"),
        ("pbw", "--n", "3", "--i", "a"),
        ("pbw", "--n", "3", "--i", "1,,2"),
        # stdout holds the JSON report, so the DOT needs a file for the JSON
        ("poset", "--quiver", "A2:F", "--dim", "1,1", "--dot", "-"),
        ("poset", "--quiver", "A2:F", "--dim", "1,1", "--dot", "-", "--json", "-"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "usage", argv
    code, _, err = run_cli(capsys, "pbw", "--n", "3", "--i", "1,x")
    assert "'x'" in json.loads(err)["error"]["message"]


HUGE = "99999999999999999999"


@pytest.mark.parametrize(
    "quiver, rep, sub, method, copies",
    [
        ("A1", "[1,1]x500", "1", "recursion", "500"),
        ("A2:F", f"[1,2]x{HUGE}", "1,1", "recursion", HUGE),
        ("A2:F", f"[1,2]x{HUGE}", "1,1", "both", HUGE),
    ],
    ids=["A1-500-recursion", "A2:F-huge-recursion", "A2:F-huge-both"],
)
def test_cli_betti_too_many_copies_is_a_value_error(capsys, quiver, rep, sub, method, copies):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "betti", "--quiver", quiver, "--rep", rep, "--sub", sub, "--method", method)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "value" and f"{copies} summand copies" in error["message"]


@pytest.mark.parametrize(
    "quiver, rep, sub",
    [
        ("A1", "[1,1]x40", "20"),
        ("A1", "[1,1]x1000", "1"),
        ("A2:F", f"[1,2]x{HUGE}", "0,0"),
        ("A1", f"[1,1]x{HUGE}", "0"),
    ],
    ids=["[1,1]x40-20", "[1,1]x1000-1", "A2:F-huge-0,0", "A1-huge-0"],
)
def test_cli_betti_oracle_budget_charges_interpolation(capsys, quiver, rep, sub):
    # one-vertex runs enumerate nothing, so only the interpolation through
    # bound + 1 points (401 and 1000 in the first two) or the explicit
    # representation of a huge class (bound 0 in the last two) can exceed
    # the budget
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "betti", "--quiver", quiver, "--rep", rep, "--sub", sub, "--method", "count")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "value" and "exceeds budget" in error["message"]


def test_cli_betti_both_refuses_the_oracle_before_the_recursion(monkeypatch, capsys):
    # the default --method both: the oracle's budget refuses this input, so
    # the recursion (1.3 s and 325 MB when it ran first) must never start
    def recursion_ran(*args, **kwargs):
        raise AssertionError("betti_recursion ran before the oracle was refused")

    monkeypatch.setattr(cli, "betti_recursion", recursion_ran)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "betti", "--quiver", "A1", "--rep", "[1,1]x140", "--sub", "70")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": {"type": "value", "message": "oracle cost 58872532391 exceeds budget 5000000"}}


@pytest.mark.parametrize("sub, splits", [("1000,1000", 1_002_001), (f"{HUGE},0", 10**20)], ids=["1000,1000", "huge,0"])
def test_cli_strata_refuses_too_many_splits_first(capsys, sub, splits):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *STRATA_A2, "--sub", sub)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "value" and f"split count {splits} exceeds budget" in error["message"]


def test_cli_strata_split_budget_is_inclusive(monkeypatch, capsys):
    # --sub 10,10 has 11 * 11 splits f <= e
    monkeypatch.setattr(grass, "STRATA_SPLIT_BUDGET", 121)
    assert run_cli(capsys, *STRATA_A2, "--sub", "10,10")[0] == 0
    code, out, err = run_cli(capsys, *STRATA_A2, "--sub", "10,11")
    assert (code, out) == (2, "") and "split count 132 exceeds budget 121" in err


def test_cli_poset_huge_dimension_is_one_node(capsys):
    code, out, err = run_cli(capsys, "poset", "--quiver", "A1", "--dim", HUGE)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["nodes"] == [f"[1,1]x{HUGE}"] and payload["covers"] == []


def test_cli_verify_huge_dimension_is_refused_first(capsys):
    # A1 1000 is one node, but its Gaussian-binomial bounds are not small
    for quiver, dim in [("A1", HUGE), ("A1", "1000"), ("A2:F", "3000,3000")]:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "--quiver", quiver, "--dim", dim, "--jobs", "1")
        assert time.perf_counter() - start < 1.0, (quiver, dim)
        assert code == 2 and out == "", (quiver, dim)
        error = json.loads(err)["error"]
        assert error["type"] == "value" and "exceeds budget" in error["message"]


# one valid small template per subcommand: (flag, kind, value) after the name
TEMPLATES = {
    "poset": [("--quiver", "quiver", "A3:FB"), ("--dim", "vec", "1,1,1")],
    "betti": [("--quiver", "quiver", "A2:F"), ("--rep", "rep", "[1,2]x2,[1,1]"), ("--sub", "vec", "1,1")],
    "strata": [
        ("--quiver", "quiver", "A2:F"),
        ("--m", "rep", "[1,2]"),
        ("--n", "rep", "[1,1],[2,2]"),
        ("--sub", "vec", "1,0"),
    ],
    "verify": [("--quiver", "quiver", "A2:F"), ("--dim", "vec", "1,1"), ("--jobs", "int", "1")],
    "pbw": [("--n", "int", "3"), ("--i", "ints", "1,2")],
}
NOT_IN_ANY_GRAMMAR = "#@!%?;&q"


@st.composite
def _bad_char(draw, value, n):
    pos = draw(st.integers(0, len(value)))
    return value[:pos] + draw(st.sampled_from(NOT_IN_ANY_GRAMMAR)) + value[pos:]


@st.composite
def _wrong_count(draw, value, n):
    parts = value.split(",")
    if draw(st.booleans()):
        return ",".join(parts + ["1"])
    return ",".join(parts[:-1]) if len(parts) > 1 else ""


@st.composite
def _wrong_flag_count(draw, value, n):
    return value + "F" if draw(st.booleans()) else value[:-1]


@st.composite
def _bad_interval(draw, value, n):
    a, b = draw(
        st.one_of(
            st.tuples(st.just(0), st.integers(0, n)),
            st.tuples(st.integers(1, n), st.integers(n + 1, n + 3)),
            st.integers(2, n).flatmap(lambda a: st.tuples(st.just(a), st.integers(1, a - 1))),
        )
    )
    return f"[{a},{b}]," + value


@st.composite
def _zero_multiplicity(draw, value, n):
    a = draw(st.integers(1, n))
    return value + f",[{a},{a}]x0"


@st.composite
def _negative_entry(draw, value, n):
    parts = value.split(",")
    parts[draw(st.integers(0, len(parts) - 1))] = str(-draw(st.integers(1, 3)))
    return ",".join(parts)


@st.composite
def _non_integer_entry(draw, value, n):
    parts = value.split(",")
    parts.insert(draw(st.integers(0, len(parts))), draw(st.sampled_from(["", "a", "1.5", "x1"])))
    return ",".join(parts)


@st.composite
def _bad_tuple(draw, value, n):
    return draw(st.sampled_from([f"1,{n}", "0,1", "2,1", "1,1", "1,2,3"]))


DEFECTS = {
    "quiver": (_bad_char, _wrong_flag_count),
    "rep": (_bad_char, _bad_interval, _zero_multiplicity),
    "vec": (_bad_char, _wrong_count, _negative_entry),
    "int": (_bad_char, _negative_entry),
    "ints": (_bad_char, _negative_entry, _non_integer_entry, _bad_tuple),
}


@given(st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_cli_fuzz_malformed_input(data):
    # every example injects exactly one defect into a valid small template,
    # so no example is a valid (possibly large) input
    command = data.draw(st.sampled_from(sorted(TEMPLATES)))
    fields = TEMPLATES[command]
    target = data.draw(st.integers(0, len(fields) - 1))
    _, kind, value = fields[target]
    defect = data.draw(st.sampled_from(DEFECTS[kind]))
    n = 3 if command == "pbw" else parse_quiver(fields[0][2]).n
    bad = data.draw(defect(value, n))
    argv = [command] + [f"{f}={bad if i == target else v}" for i, (f, _, v) in enumerate(fields)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 2, argv
    assert out.getvalue() == ""
    assert "Traceback" not in err.getvalue()
    assert json.loads(err.getvalue())["error"]["type"] in ("usage", "value"), argv


def test_cli_pbw_internal_check(monkeypatch, capsys):
    monkeypatch.setattr(specialize, "hom_leq", lambda q, m, n: False)
    code, out, err = run_cli(capsys, "pbw", "--n", "2", "--i", "1")
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "internal-check" and "does not degenerate" in error["message"]


def test_cli_verify_reports_a_fault_of_the_explicit_route_as_internal(monkeypatch, capsys):
    # a string walk that reads no summand fails the comparison of a nonzero
    # subquotient, and Hom counts read with the wrong sign then make
    # iso_identify, naming the class, solve to a negative multiplicity
    # inside boundary_check: a fault of the program, not of the input, so
    # exit 1 and internal-check, not exit 2 and value
    for q in (parse_quiver(label) for label in ("A1", "A2:F", "A2:B", "A3:FF")):
        homalg.hom_table(q)  # built from correct counts before the fault
    real = homalg.interval_hom_dim
    degen.boundary_check.cache_clear()
    monkeypatch.setattr(homalg, "_string_class", lambda f: RepClass.empty())
    monkeypatch.setattr(homalg, "interval_hom_dim", lambda u, g: -real(u, g))
    try:
        code, out, err = run_cli(capsys, "verify", "--quiver", "A3:FF", "--dim", "1,1,1", "--jobs", "1")
    finally:
        degen.boundary_check.cache_clear()
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    assert error["type"] == "internal-check"
    assert error["message"].startswith("explicit boundary route fails: multiplicity of [")
    assert "solves to -" in error["message"]


@pytest.mark.parametrize(
    "m, n, links", [("[1,3]", "[1,1],[2,2],[3,3]", 2), ("[1,3]", "[1,3]", 0)]
)
def test_cli_strata_refuses_non_cover_before_any_table(monkeypatch, capsys, m, n, links):
    def refuse(*args, **kwargs):
        raise AssertionError("a Betti or strata table was built before the cover check")

    for name in ("betti_table", "packed_betti_table", "strata_sums"):
        monkeypatch.setattr(grass, name, refuse)
    for module in (grass, cli):
        monkeypatch.setattr(module, "strata_table", refuse)
    code, out, err = run_cli(capsys, "strata", "--quiver", "A3:FF", "--m", m, "--n", n, "--sub", "1,0,0")
    assert (code, out) == (2, "")
    message = f"({m}, {n}) is not a cover; chain has {links} links"
    assert err == json.dumps({"error": {"type": "usage", "message": message}}) + "\n"


def test_cli_parser_is_built_once_and_keeps_no_flags(tmp_path, capsys):
    parser = cli.build_parser()
    path = tmp_path / "betti.json"
    argv = ["betti", "--quiver", "A2:F", "--rep", "[1,2],[2,2]", "--sub", "1,1"]
    assert main(argv + ["--method", "recursion", "--json", str(path)]) == 0
    assert capsys.readouterr().out == ""
    # neither --json nor --method carries over into the next call
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and cli.build_parser() is parser
    payload = json.loads(out)
    assert payload["method"] == "both" and payload["match"] is True
    assert payload["coefficients"] == json.loads(path.read_text())["coefficients"]


def test_cli_help_is_plain_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: quivergrass verify")


@pytest.mark.parametrize(
    "argv",
    [
        ("poset", "--quiver", "A2:F", "--dim", "1,1", "--json"),
        ("poset", "--quiver", "A2:F", "--dim", "1,1", "--dot"),
        ("pbw", "--n", "2", "--i", "1", "--json"),
        ("verify", "--quiver", "A2:F", "--dim", "1,1", "--jobs", "1", "--json"),
        ("strata", "--quiver", "A2:F", "--m", "[1,2]", "--n", "[1,1],[2,2]", "--sub", "1,0", "--json"),
        ("betti", "--quiver", "A2:F", "--rep", "[1,2]", "--sub", "1,0", "--json"),
    ],
)
def test_cli_unwritable_output_path(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, *argv, str(tmp_path / "missing" / "x.json"))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "io"


def test_cli_writes_files(tmp_path, capsys):
    dot = tmp_path / "poset.dot"
    out_json = tmp_path / "poset.json"
    code, out, _ = run_cli(
        capsys, "poset", "--quiver", "A2:F", "--dim", "1,1",
        "--dot", str(dot), "--json", str(out_json),
    )
    assert code == 0
    assert out == ""
    assert dot.read_text().startswith("digraph")
    assert json.loads(out_json.read_text())["quiver"] == "A2:F"
