"""Property test of the exit-code contract: every input gets 0, 1, 2 or 3.

Small networks and query files, well-formed or not, chains among them, go
through the in-process cli.main; no subprocess is started.  Nothing may
escape main as an exception, and stderr never holds a traceback.
"""

import contextlib
import io
import json
import tempfile
from itertools import product
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from credalcones.cli import main

# the joint queries, which the chain recursion answers, come up most often
KINDS = [
    "member",
    "lower-prevision",
    "upper-prevision",
    "condition-member",
    "member",
    "lower-prevision",
    "marginal-member",
    "irrelevance-check",
    "verify-all",
    "coherence",
]

# small exact rationals; now and then something the parser must refuse
# (floats, booleans, null, division by zero, words, a value over the
# int-string digit limit)
ENTRIES = st.one_of(st.integers(-3, 3), st.sampled_from(["1/2", "-2/3", "3"]))
# local assessments lean positive, so that most networks are coherent
ASSESSED = st.one_of(st.integers(-1, 3), st.sampled_from(["1/2", "-1/3"]))
BAD_ENTRIES = st.sampled_from(["1/0", "x", 0.5, True, None, "1e5000", "-1E-5000", "1e2000000"])

JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-5, 5), st.text(max_size=3)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=6,
)


def values_of(size):
    return [str(d) for d in range(size)]


def rarely(draw) -> bool:
    # an inner value: hypothesis draws the ends of a range more often
    return draw(st.integers(0, 19)) == 9


def table(draw, width, entries=ENTRIES):
    """A table of `width` entries; rarely one too long or with a bad entry."""
    row = draw(st.lists(entries, min_size=width, max_size=width))
    if rarely(draw):
        row.append(draw(entries))
    if row and rarely(draw):
        row[draw(st.integers(0, len(row) - 1))] = draw(BAD_ENTRIES)
    return row


@st.composite
def networks(draw):
    """(network object, node -> value count, node -> parents); the graph is
    a chain, an arbitrary edge list (cycles and unknown nodes included) or
    edgeless."""
    names = [f"n{i}" for i in range(draw(st.integers(1, 3)))]
    sizes = {x: draw(st.integers(1, 3)) for x in names}
    shape = draw(st.sampled_from(["chain", "chain", "edges", "none"]))
    if shape == "chain":
        order = draw(st.permutations(names))
        edges = [list(e) for e in zip(order, order[1:])]
    elif shape == "edges":
        ends = st.sampled_from(names + ["zz"] if rarely(draw) else names)
        edges = draw(st.lists(st.lists(ends, min_size=2, max_size=2), max_size=4))
        edges = [e for e in edges if e[0] != e[1] or rarely(draw)]
    else:
        edges = []
    parents = {x: sorted({u for u, v in edges if v == x and u in sizes and u != x}) for x in names}
    local_models = []
    for x in names:
        for config in product(*[values_of(sizes[p]) for p in parents[x]]):
            count = draw(st.sampled_from([0, 0, 1, 1, 2]))
            gambles = [table(draw, sizes[x], ASSESSED) for _ in range(count)]
            local_models.append({"node": x, "given": dict(zip(parents[x], config)), "gambles": gambles})
    if local_models and rarely(draw):
        local_models.pop(draw(st.integers(0, len(local_models) - 1)))
    if local_models and rarely(draw):
        local_models.append(local_models[0])
    network = {
        "variables": [{"id": x, "values": values_of(sizes[x])} for x in names],
        "edges": edges,
        "local_models": local_models,
    }
    return network, sizes, parents


@st.composite
def queries(draw, sizes, parents):
    names = sorted(sizes)
    node = st.sampled_from(names + ["zz"]) if rarely(draw) else st.sampled_from(names)

    def nodes(most):
        return draw(st.lists(node, max_size=most, unique=not rarely(draw)))

    def assignment(chosen):
        top = 1 if rarely(draw) else 0  # one past the last value: unknown
        return {x: str(draw(st.integers(0, sizes.get(x, 2) - 1 + top))) for x in chosen}

    kind = draw(st.sampled_from(KINDS if not rarely(draw) else ["bogus"]))
    query = {"kind": kind}
    if kind in ("marginal-member", "irrelevance-check"):
        x = draw(node)
        query.update(
            node=x,
            parent=assignment(parents.get(x, []) if not rarely(draw) else nodes(2)),
            given=assignment(nodes(2)),
            gamble=table(draw, sizes.get(x, 2)),
        )
    elif kind == "verify-all":
        query.update(gambles_per_slot=draw(st.integers(0, 2)), subset_cap=draw(st.integers(0, 3)))
    elif kind != "coherence":
        scope = nodes(3)
        width = 1
        for x in scope:
            width *= sizes.get(x, 2)
        query["gamble"] = {"scope": scope, "table": table(draw, width)}
        if kind == "condition-member":
            query["given"] = assignment(nodes(2))
    return query


@st.composite
def invocations(draw):
    """An argv tail and the two file contents it reads."""
    if rarely(draw):
        network, sizes, parents = draw(JSON), {"n0": 2}, {}
    else:
        network, sizes, parents = draw(networks())
    command = draw(st.sampled_from(["query", "query", "query", "verify", "validate"]))
    cap = ["--cap", "5"] if rarely(draw) else []
    if command == "query":
        if rarely(draw):
            query = draw(JSON)
        else:
            query = draw(st.lists(queries(sizes, parents), min_size=1, max_size=3))
        return [command, "NET", "QUERY", *cap], network, query
    if command == "verify":
        options = [
            "--gambles-per-slot", str(draw(st.integers(0, 2))),
            "--audit-samples", str(draw(st.integers(0, 3))),
            "--budget", str(draw(st.integers(0, 6))),
        ]
        if draw(st.booleans()):
            slot = (draw(st.sampled_from(sorted(sizes))), draw(st.integers(0, 1)), draw(st.integers(0, 2)))
            flip = "%s:%d:%d" % slot
            options += ["--mutate-flip", flip]
        return [command, "NET", *options, *cap], network, None
    return [command, "NET"], network, None


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(invocations())
def test_every_input_gets_a_contract_exit_code(invocation):
    argv, network, query = invocation
    with tempfile.TemporaryDirectory() as tmp:
        files = {"NET": Path(tmp) / "net.json", "QUERY": Path(tmp) / "q.json"}
        files["NET"].write_text(json.dumps(network))
        files["QUERY"].write_text(json.dumps(query))
        argv = [str(files[a]) if a in files else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code in (0, 2):
        json.loads(out.getvalue())  # a report, not a half-written one
