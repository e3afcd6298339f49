"""End-to-end tests of the command line interface.

Everything runs through cli.main(argv) in-process, so exit codes and
stdout are checked directly without spawning subprocesses.

Exit contract under test: 0 pass, 1 verification failure, 2 semantic
input error (with a JSON certificate on stdout), 3 parse error.
"""

import json
import random
import sys
from fractions import Fraction

import pytest

from credalcones import cone, core, lp, net as net_module
from credalcones.cli import load_network, main, serialize_network
from credalcones.dag import Dag
from credalcones.lp import Membership
from credalcones.net import sample_credal_net

CHAIN = {
    "variables": [
        {"id": "a", "values": ["0", "1"]},
        {"id": "b", "values": ["0", "1"]},
        {"id": "c", "values": ["0", "1"]},
    ],
    "edges": [["a", "b"], ["b", "c"]],
    "local_models": [
        {"node": "a", "given": {}, "gambles": []},
        {"node": "b", "given": {"a": "0"}, "gambles": []},
        {"node": "b", "given": {"a": "1"}, "gambles": []},
        {"node": "c", "given": {"b": "0"}, "gambles": [["2", "-1"]]},
        {"node": "c", "given": {"b": "1"}, "gambles": [["-1", "2"]]},
    ],
}

# two parents of one child: not a chain, so generic queries reach the joint LP
COLLIDER = {
    "variables": [
        {"id": "a", "values": ["0", "1"]},
        {"id": "b", "values": ["0", "1"]},
        {"id": "c", "values": ["0", "1"]},
    ],
    "edges": [["a", "c"], ["b", "c"]],
    "local_models": [
        {"node": "a", "given": {}, "gambles": []},
        {"node": "b", "given": {}, "gambles": []},
        {"node": "c", "given": {"a": "0", "b": "0"}, "gambles": [["2", "-1"]]},
        {"node": "c", "given": {"a": "0", "b": "1"}, "gambles": []},
        {"node": "c", "given": {"a": "1", "b": "0"}, "gambles": []},
        {"node": "c", "given": {"a": "1", "b": "1"}, "gambles": [["-1", "2"]]},
    ],
}

SINGLE = {
    "variables": [{"id": "a", "values": ["0", "1"]}],
    "edges": [],
    "local_models": [{"node": "a", "given": {}, "gambles": [["1/3", "-1/4"]]}],
}


def write(tmp_path, name, payload):
    path = tmp_path / name
    if isinstance(payload, str):
        path.write_text(payload)
    else:
        path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_reports_network_shape(tmp_path, capsys):
    net = write(tmp_path, "net.json", CHAIN)
    code, out, _ = run(capsys, "validate", net)
    assert code == 0
    report = json.loads(out)
    assert report["valid"] is True
    assert report["local_models"] == 5
    assert report["network"] == {
        "nodes": 3,
        "edges": 2,
        "joint_size": 8,
        "generator_count": 18,
    }


def test_query_kinds_round_trip(tmp_path, capsys):
    net = write(tmp_path, "net.json", CHAIN)
    queries = write(
        tmp_path,
        "q.json",
        [
            {"kind": "coherence"},
            {"kind": "member", "gamble": {"scope": ["a"], "table": ["1", "1"]}},
            {"kind": "member", "gamble": {"scope": ["a"], "table": ["-1", "-1"]}},
            {
                "kind": "condition-member",
                "given": {"a": "0", "b": "0"},
                "gamble": {"scope": ["c"], "table": ["2", "-1"]},
            },
            {
                "kind": "condition-member",
                "given": {"a": "0"},
                "gamble": {"scope": ["c"], "table": ["2", "-1"]},
            },
            {"kind": "lower-prevision", "gamble": {"scope": ["c"], "table": ["1", "0"]}},
            {"kind": "upper-prevision", "gamble": {"scope": ["c"], "table": ["1", "0"]}},
            {
                "kind": "marginal-member",
                "node": "c",
                "parent": {"b": "0"},
                "given": {"a": "1"},
                "gamble": ["2", "-1"],
            },
            {
                "kind": "irrelevance-check",
                "node": "c",
                "parent": {"b": "0"},
                "given": {"a": "1"},
                "gamble": ["2", "-1"],
            },
            {"kind": "verify-all", "gambles_per_slot": 2},
        ],
    )
    code, out, _ = run(capsys, "query", net, queries, "--seed", "5")
    assert code == 0
    report = json.loads(out)
    assert report["seed"] == 5
    assert report["generator_count"] == 18
    answers = report["queries"]
    assert answers[0]["result"]["coherent"] is True
    assert answers[1]["result"]["member"] is True
    # answering "no" is still exit 0; only machinery failures change the code
    assert answers[2]["result"]["member"] is False
    # the local assessment conditioned on its parent configuration (plus an
    # irrelevant observation) is desirable, certified from the local cone...
    assert answers[3]["result"]["member"] is True
    assert answers[3]["result"]["route"] == "local-assembly"
    # ...but conditioned on the non-parent alone it is not
    assert answers[4]["result"]["member"] is False
    assert answers[5]["result"]["value"] == "0"
    assert answers[6]["result"]["value"] == "1"
    assert answers[7]["result"]["member"] is True
    assert answers[8]["result"]["agree"] is True
    assert answers[9]["result"]["ok"] is True


def test_rationals_survive_the_round_trip(tmp_path, capsys):
    net = write(tmp_path, "net.json", SINGLE)
    queries = write(
        tmp_path,
        "q.json",
        {"kind": "lower-prevision", "gamble": {"scope": ["a"], "table": ["1/3", "-1/4"]}},
    )
    code, out, _ = run(capsys, "query", net, queries)
    assert code == 0
    assert json.loads(out)["queries"][0]["result"]["value"] == "0"


def test_verify_is_byte_identical_for_same_seed(tmp_path, capsys):
    net = write(tmp_path, "net.json", CHAIN)
    args = ("verify", net, "--seed", "11", "--gambles-per-slot", "2", "--audit-samples", "5")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["ok"] is True
    assert report["sweep"]["violations"] == []
    assert report["sweep"]["atoms_checked"] == 8
    assert report["positivity_audit"]["ok"] is True
    # a different seed may sample different gambles but must stay clean
    code3, out3, _ = run(capsys, "verify", net, "--seed", "12", "--gambles-per-slot", "2")
    assert code3 == 0 and json.loads(out3)["ok"] is True


def test_mutated_network_fails_verification_naming_the_slot(tmp_path, capsys):
    net = write(tmp_path, "net.json", CHAIN)
    code, out, _ = run(
        capsys,
        "verify",
        net,
        "--seed",
        "3",
        "--gambles-per-slot",
        "2",
        "--mutate-flip",
        "c:0:0",
    )
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert report["mutation"] == "c:0:0"
    hits = report["sweep"]["violations"]
    assert hits
    hit = hits[0]
    assert hit["kind"] == "irrelevance-mismatch"
    assert hit["node"] == "c"
    assert hit["parent"] == ["0"]
    assert hit["gamble"]
    assert hit["local_member"] != hit["joint_member"]
    # the independent expectation audit catches the flipped generator too
    assert report["positivity_audit"]["ok"] is False
    assert report["positivity_audit"]["failures"]


def test_the_budget_help_says_what_the_budget_counts(capsys, monkeypatch):
    # the budget caps the irrelevance checks, one per observation; the
    # atoms and the nonpositive gambles are checked whatever it says (a
    # wide terminal, so that no line is wrapped inside a hyphenated option)
    monkeypatch.setenv("COLUMNS", "1000")
    with pytest.raises(SystemExit) as done:
        main(["verify", "--help"])
    assert done.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "maximum number of irrelevance checks, one per observation" in text
    assert "the atoms and the joint size + --gambles-per-slot nonpositive gambles" in text
    assert "are checked outside it" in text


def test_parse_errors_exit_3(tmp_path, capsys):
    broken = write(tmp_path, "broken.json", "{\"variables\": [")
    assert run(capsys, "validate", broken)[0] == 3

    floats = dict(SINGLE)
    floats["local_models"] = [{"node": "a", "given": {}, "gambles": [[0.5, "-1"]]}]
    path = write(tmp_path, "floats.json", floats)
    code, _, err = run(capsys, "validate", path)
    assert code == 3
    assert "exact" in err

    short_row = dict(SINGLE)
    short_row["local_models"] = [{"node": "a", "given": {}, "gambles": [["1"]]}]
    assert run(capsys, "validate", write(tmp_path, "short.json", short_row))[0] == 3

    unknown_node = dict(SINGLE)
    unknown_node["local_models"] = SINGLE["local_models"] + [
        {"node": "zz", "given": {}, "gambles": []}
    ]
    assert run(capsys, "validate", write(tmp_path, "unknown.json", unknown_node))[0] == 3

    net = write(tmp_path, "net.json", CHAIN)
    bad_scope = write(
        tmp_path,
        "bad_scope.json",
        {"kind": "member", "gamble": {"scope": ["zz"], "table": ["1", "1"]}},
    )
    assert run(capsys, "query", net, bad_scope)[0] == 3

    bad_shape = write(
        tmp_path,
        "bad_shape.json",
        {"kind": "member", "gamble": {"scope": ["a"], "table": ["1"]}},
    )
    assert run(capsys, "query", net, bad_shape)[0] == 3

    unknown_kind = write(tmp_path, "kind.json", {"kind": "mystery"})
    assert run(capsys, "query", net, unknown_kind)[0] == 3

    assert run(capsys, "verify", net, "--mutate-flip", "nocolon")[0] == 3
    assert run(capsys, "verify", net, "--mutate-flip", "")[0] == 3


def test_semantic_errors_exit_2_with_certificates(tmp_path, capsys):
    cyclic = {
        "variables": [
            {"id": "a", "values": ["0", "1"]},
            {"id": "b", "values": ["0", "1"]},
        ],
        "edges": [["a", "b"], ["b", "a"]],
        "local_models": [],
    }
    code, out, _ = run(capsys, "validate", write(tmp_path, "cyclic.json", cyclic))
    assert code == 2
    report = json.loads(out)
    assert report["valid"] is False
    assert report["reason"] == "cycle"
    assert report["cycle"]

    incoherent = {
        "variables": [{"id": "a", "values": ["0", "1"]}],
        "edges": [],
        "local_models": [{"node": "a", "given": {}, "gambles": [["-1", "-1"]]}],
    }
    code, out, _ = run(capsys, "validate", write(tmp_path, "incoh.json", incoherent))
    assert code == 2
    report = json.loads(out)
    assert report["reason"] == "incoherent-local-model"
    assert report["node"] == "a"
    # printed pairs: nonzero coefficients, all positive, that combine the
    # slot's generators (the assessment, then the atoms) to the zero gamble
    generators = [(-1, -1), (1, 0), (0, 1)]
    weights = {i: Fraction(c) for i, c in report["vanishing_combination"]}
    assert weights and len(weights) == len(report["vanishing_combination"])
    assert all(c > 0 and 0 <= i < len(generators) for i, c in weights.items())
    assert [sum(c * generators[i][x] for i, c in weights.items()) for x in range(2)] == [0, 0]

    missing = dict(CHAIN)
    missing["local_models"] = CHAIN["local_models"][:-1]
    code, out, _ = run(capsys, "validate", write(tmp_path, "missing.json", missing))
    assert code == 2
    report = json.loads(out)
    assert report["reason"] == "missing-configuration"
    assert report["node"] == "c"
    assert report["given"] == {"b": "1"}

    duplicated = dict(CHAIN)
    duplicated["local_models"] = CHAIN["local_models"] + [CHAIN["local_models"][-1]]
    code, out, _ = run(capsys, "validate", write(tmp_path, "dup.json", duplicated))
    assert code == 2
    assert json.loads(out)["reason"] == "duplicate-configuration"

    zero = {
        "variables": [{"id": "a", "values": ["0", "1"]}],
        "edges": [],
        "local_models": [{"node": "a", "given": {}, "gambles": [["0", "0"]]}],
    }
    code, out, _ = run(capsys, "validate", write(tmp_path, "zero.json", zero))
    assert code == 2
    assert json.loads(out)["reason"] == "zero-assessment"

    net = write(tmp_path, "net.json", CHAIN)
    code, out, _ = run(capsys, "verify", net, "--cap", "5")
    assert code == 2
    assert json.loads(out)["reason"] == "generator-cap"

    code, out, _ = run(capsys, "verify", net, "--mutate-flip", "c:9:0")
    assert code == 2

    not_nnd = write(
        tmp_path,
        "not_nnd.json",
        {
            "kind": "marginal-member",
            "node": "a",
            "parent": {},
            "given": {"b": "0"},
            "gamble": ["1", "-1"],
        },
    )
    assert run(capsys, "query", net, not_nnd)[0] == 2


def assert_parse_error(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_all_count_that_is_not_a_number_exits_3(tmp_path, capsys):
    net = write(tmp_path, "net.json", CHAIN)
    query = write(tmp_path, "q.json", {"kind": "verify-all", "gambles_per_slot": "lots"})
    assert_parse_error(capsys, "query", net, query)


@pytest.mark.parametrize("key", ["gambles_per_slot", "subset_cap"])
def test_verify_all_negative_count_exits_3(tmp_path, capsys, key):
    net = write(tmp_path, "net.json", CHAIN)
    query = write(tmp_path, "q.json", {"kind": "verify-all", key: -1})
    assert_parse_error(capsys, "query", net, query)


@pytest.mark.parametrize("key", ["gambles_per_slot", "subset_cap"])
def test_verify_all_boolean_count_exits_3(tmp_path, capsys, key):
    net = write(tmp_path, "net.json", CHAIN)
    query = write(tmp_path, "q.json", {"kind": "verify-all", key: True})
    assert_parse_error(capsys, "query", net, query)


@pytest.mark.parametrize(
    "flag", ["--gambles-per-slot", "--subset-cap", "--audit-samples", "--budget", "--cap"]
)
def test_negative_verify_option_exits_3(tmp_path, capsys, flag):
    net = write(tmp_path, "net.json", CHAIN)
    assert_parse_error(capsys, "verify", net, flag, "-1")


def test_file_that_is_not_utf8_exits_3(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"variables": [{"id": "\xe9", "values": ["0", "1"]}]}')
    assert_parse_error(capsys, "validate", str(path))


def test_json_nested_past_the_recursion_limit_exits_3(tmp_path, capsys):
    assert_parse_error(capsys, "validate", write(tmp_path, "deep.json", "[" * 100_000))


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="integer literals have no digit limit",
)
def test_integer_over_the_digit_limit_exits_3(tmp_path, capsys):
    digits = "7" * (sys.get_int_max_str_digits() + 1)
    path = write(tmp_path, "huge.json", '{"variables": [], "edges": [], "local_models": ' + digits + "}")
    assert_parse_error(capsys, "validate", path)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="integer literals have no digit limit",
)
def test_decimal_literal_over_the_digit_limit_exits_3(tmp_path, capsys):
    # a literal whose value has a numerator or denominator of more digits
    # than the int-string limit is refused, naming the entry, before 10 is
    # raised to its exponent; one digit fewer is read and printed
    limit = sys.get_int_max_str_digits()
    vacuous = dict(SINGLE, local_models=[{"node": "a", "given": {}, "gambles": []}])
    vacuous_path = write(tmp_path, "vacuous.json", vacuous)

    def files(literal):
        model = {"node": "a", "given": {}, "gambles": [[literal, "1"]]}
        net = write(tmp_path, "net.json", dict(SINGLE, local_models=[model]))
        query = {"kind": "lower-prevision", "gamble": {"scope": ["a"], "table": [literal, "1"]}}
        return net, write(tmp_path, "q.json", query)

    for literal in ("1e5000", "-1E-5000", "1e+4_301", "-1e4400", f"1e{limit}", f"-1E-{limit}"):
        net, query = files(literal)
        assert_parse_error(capsys, "validate", net)
        code, out, err = run(capsys, "query", vacuous_path, query)
        assert (code, out) == (3, "") and err.startswith(f"error: {query}[0]: table[0]: ")
    largest = 10 ** (limit - 1)
    for literal, value in ((f"-1e{limit - 1}", -largest), (f"-1E-{limit - 1}", Fraction(-1, largest))):
        net, query = files(literal)
        assert run(capsys, "validate", net)[0] == 0
        code, out, _ = run(capsys, "query", vacuous_path, query)
        assert code == 0 and json.loads(out)["queries"][0]["result"]["value"] == str(value)


def test_usage_error_exits_3(tmp_path, capsys):
    net = write(tmp_path, "net.json", CHAIN)
    assert_parse_error(capsys, "verify", net, "--seed", "x")


def test_zero_gambles_and_scope_overlaps_are_semantic_errors(tmp_path, capsys):
    net = write(tmp_path, "net.json", CHAIN)
    zero_member = write(
        tmp_path,
        "zm.json",
        {"kind": "member", "gamble": {"scope": ["a"], "table": ["0", "0"]}},
    )
    code, out, _ = run(capsys, "query", net, zero_member)
    assert code == 2
    assert json.loads(out)["reason"] == "zero-gamble"

    zero_marginal = write(
        tmp_path,
        "zmm.json",
        {
            "kind": "marginal-member",
            "node": "c",
            "parent": {"b": "0"},
            "given": {},
            "gamble": ["0", "0"],
        },
    )
    code, out, _ = run(capsys, "query", net, zero_marginal)
    assert code == 2
    assert json.loads(out)["reason"] == "zero-gamble"

    overlapping = write(
        tmp_path,
        "overlap.json",
        {
            "kind": "condition-member",
            "given": {"b": "0"},
            "gamble": {"scope": ["b", "c"], "table": ["1", "0", "0", "1"]},
        },
    )
    assert run(capsys, "query", net, overlapping)[0] == 2


def test_serialize_parse_round_trip_is_exact(tmp_path):
    rng = random.Random(909)
    for i in range(10):
        net = sample_credal_net(rng, max_nodes=4, max_values=3, max_assessments=2)
        blob = serialize_network(net)
        path = tmp_path / f"rt{i}.json"
        path.write_text(json.dumps(blob))
        back = load_network(str(path))
        assert back.dag.nodes == net.dag.nodes
        assert back.dag.edges == net.dag.edges
        assert {n: v.values for n, v in back.variables.items()} == {
            n: v.values for n, v in net.variables.items()
        }
        for key, gambles in net.assessments.items():
            assert tuple(g.table for g in back.assessments[key]) == tuple(
                g.table for g in gambles
            )
        # and serializing the parsed net reproduces the document exactly
        assert serialize_network(back) == blob


def test_marginal_and_condition_member_print_the_same_result(tmp_path, capsys):
    # marginal-member is answered by the one conditioning entry: on the same
    # observations, asked in the same order (a query may cache a separator
    # that answers a later one), both kinds print the same flag, route and
    # certificate
    rng = random.Random(4242)
    observed_nnd = 0
    for i in range(12):
        net = sample_credal_net(rng, max_nodes=4, max_values=3, max_assessments=2)
        marginal, conditional = [], []
        dag = net.dag
        nodes = [n for n in dag.nodes if dag.non_parent_non_descendants(n)] or dag.nodes
        for _ in range(4):
            s = rng.choice(nodes)
            parent = net.parent_space(s).config_at(rng.randrange(net.parent_space(s).size))
            nnd = dag.non_parent_non_descendants(s)
            observed = [n for n in nnd if rng.random() < 0.5]
            given = {n: rng.choice(net.variables[n].values) for n in observed}
            observed_nnd += bool(given)
            row = [str(v) for v in net_module.sample_gamble(rng, net.node_space(s)).table]
            marginal.append(
                {
                    "kind": "marginal-member",
                    "node": s,
                    "parent": parent.as_dict(),
                    "given": given,
                    "gamble": row,
                }
            )
            conditional.append(
                {
                    "kind": "condition-member",
                    "given": {**parent.as_dict(), **given},
                    "gamble": {"scope": [s], "table": row},
                }
            )
        path = write(tmp_path, f"net{i}.json", serialize_network(net))
        results = []
        for name, queries in (("marginal", marginal), ("conditional", conditional)):
            code, out, _ = run(capsys, "query", path, write(tmp_path, f"{name}{i}.json", queries))
            assert code == 0
            results.append([answer["result"] for answer in json.loads(out)["queries"]])
        assert results[0] == results[1]
    assert observed_nnd > 0

    # check_irrelevance refuses an observed node outside the non-parent-non-
    # descendants (here the child's own parent) and the zero gamble
    net = net_module.CredalNet(
        Dag(["a", "b"], [("a", "b")]),
        [core.VariableSpace("a", ("0", "1")), core.VariableSpace("b", ("0", "1"))],
    )
    joint = net.build_joint()
    a0 = net.parent_space("b").config_at(0)
    f = core.Gamble(net.node_space("b"), (1, -1))
    with pytest.raises(net_module.NetworkError, match="non-parent-non-descendants"):
        joint.check_irrelevance("b", a0, a0, f)
    empty = net.nnd_space("b").config_at(0)
    with pytest.raises(net_module.ZeroGambleError):
        joint.check_irrelevance("b", a0, empty, core.Gamble.zero(net.node_space("b")))


def test_budget_exhaustion_reports_but_passes(tmp_path, capsys):
    net = write(tmp_path, "net.json", CHAIN)
    code, out, _ = run(
        capsys, "verify", net, "--budget", "3", "--gambles-per-slot", "2"
    )
    # no counterexample found: exit 0, but the report owns up to the cut
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["sweep"]["ok"] is False
    assert report["sweep"]["budget_exhausted"] is True
    assert report["sweep"]["irrelevance_checked"] == 3
    assert report["sweep"]["violations"] == []


def test_solver_fault_exits_1_not_as_bad_input(tmp_path, capsys, monkeypatch):
    # a witness that does not reproduce the target fails joint verification:
    # that is the solver's fault, not the input's, so no exit 2 and no JSON
    calls = []

    def bad_witness(target, generators):
        calls.append(len(generators))
        return Membership(member=True, route="exact-lp", witness=(((0, 1),), 1))

    monkeypatch.setattr(net_module, "conic_membership", bad_witness)
    net = write(tmp_path, "net.json", COLLIDER)
    query = write(
        tmp_path,
        "q.json",
        {"kind": "member", "gamble": {"scope": ["b", "c"], "table": ["2", "-1", "-1", "2"]}},
    )
    code, out, err = run(capsys, "query", net, query)
    assert calls, "the query must reach the exact LP"
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "joint verification" in err


@pytest.mark.parametrize("kind", ["member", "lower-prevision"])
def test_work_cap_exits_2_before_any_dense_column(tmp_path, capsys, monkeypatch, kind):
    coordinate_rows = lp._coordinate_rows

    def dense_rows(columns, dim):
        # the local coherence LPs at load time have a node's 2 values plus
        # the appended coordinate; any other dense row is the joint LP's
        if dim != 3:
            raise AssertionError("a dense LP row was built")
        return coordinate_rows(columns, dim)

    monkeypatch.setattr(lp, "_coordinate_rows", dense_rows)
    monkeypatch.setattr(lp, "_MAX_CELLS", 8 * 9)  # 8 rows: room for no column
    net = write(tmp_path, "net.json", COLLIDER)
    query = write(
        tmp_path,
        "q.json",
        {"kind": kind, "gamble": {"scope": ["b", "c"], "table": ["2", "-1", "-1", "2"]}},
    )
    code, out, err = run(capsys, "query", net, query)
    assert code == 2
    report = json.loads(out)
    distinct = len(load_network(net).build_joint()._owners())
    assert report == {
        "command": "query",
        "valid": False,
        "reason": "work-cap",
        "cells": 8 * (distinct + 8 + 1),
        "cap": 72,
    }
    assert err == ""


def test_local_work_cap_exits_2_before_any_atom_or_lp_row(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("an atom or a coherence LP row was built")

    monkeypatch.setattr(core, "indicator", never)
    monkeypatch.setattr(cone, "Gamble", never)
    monkeypatch.setattr(lp, "_solve_standard", never)
    monkeypatch.setattr(lp, "_coordinate_rows", never)
    monkeypatch.setattr(lp, "_MAX_CELLS", 100)
    values = [str(d) for d in range(6)]
    model = {"node": "x", "given": {}, "gambles": [["5", "-1", "-1", "-1", "-1", "-1"]]}
    net = write(
        tmp_path,
        "net.json",
        {"variables": [{"id": "x", "values": values}], "edges": [], "local_models": [model]},
    )
    code, out, err = run(capsys, "validate", net)
    assert code == 2 and err == ""
    # the coherence LP: 6 + 1 rows, one column per generator (1 + 6)
    assert json.loads(out) == {
        "command": "validate",
        "valid": False,
        "reason": "work-cap",
        "cells": 7 * (7 + 7 + 1),
        "cap": 100,
    }


def test_chain_queries_need_no_joint_lp_under_the_work_cap(tmp_path, capsys, monkeypatch):
    # the chain recursion answers from local LPs and checks its certificates
    # on the integer generator columns: no joint LP is sized, no work cap
    net = write(tmp_path, "net.json", CHAIN)
    gamble = {"scope": ["b", "c"], "table": ["2", "-1", "-1", "2"]}
    query = write(
        tmp_path,
        "q.json",
        [{"kind": "member", "gamble": gamble}, {"kind": "lower-prevision", "gamble": gamble}],
    )
    joint = load_network(net).build_joint()
    columns, _ = joint._dedup_columns()
    table = [Fraction(v) for _ in range(2) for v in gamble["table"]]  # a varies slowest
    expected_member = lp.conic_membership(lp._over_lcm(table), columns).member
    expected_value = lp._checked_prevision(table, columns)[0]

    def joint_lp(self):
        raise AssertionError("a joint LP was sized")

    monkeypatch.setattr(net_module.JointModel, "_dedup_columns", joint_lp)
    monkeypatch.setattr(lp, "_MAX_CELLS", 8 * 9)
    code, out, err = run(capsys, "query", net, query)
    assert code == 0 and err == ""
    member, lower = json.loads(out)["queries"]
    assert member["result"]["member"] is expected_member
    assert member["result"]["route"] == "chain-recursion"
    assert lower["result"]["value"] == str(expected_value)


def test_pivot_limit_exits_2_with_a_report(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(lp, "_MAX_PIVOTS", 0)
    net = write(tmp_path, "net.json", CHAIN)
    query = write(tmp_path, "q.json", {"kind": "coherence"})
    code, out, err = run(capsys, "query", net, query)
    assert code == 2
    assert json.loads(out) == {"command": "query", "valid": False, "reason": "pivot-limit"}
    assert err == ""
