"""Command line interface: validate a network file, answer queries, verify.

All numbers in input and output files are exact rationals written as
strings ("3/4", "-2") or JSON integers; floats are rejected outright.
Reports are JSON on stdout with sorted keys, so the same inputs and the
same seed always produce byte-identical output.

Exit codes are a stable contract:
  0  pass (a query answering "false" is still a pass)
  1  verification failure: the verify sweep or the positivity audit found
     concrete counterexamples, or a solver certificate failed its exact
     re-verification (one "error:" line on stderr)
  2  semantic input error: cycle, missing or duplicate parent
     configuration, incoherent local model, generator cap exceeded, LP
     pivot limit exceeded, local or joint LP over the work cap
  3  parse error: unreadable file, bad JSON, floats, wrong shapes,
     unknown references, bad command-line arguments
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from typing import Any, Optional, Sequence

from .core import (
    Configuration,
    Gamble,
    ScopeError,
    Space,
    VariableSpace,
    as_rational,
)
from .dag import Dag, DagError
from .lp import LpError, PivotLimitError, WorkCapError
from .net import (
    DEFAULT_GENERATOR_CAP,
    CredalNet,
    GeneratorCapError,
    IncoherentLocalModel,
    JointModel,
    NetworkError,
    VerificationReport,
    ZeroGambleError,
)
from .oracle import AuditReport, PreciseNet, positivity_audit

EXIT_PASS = 0
EXIT_VERIFY_FAILED = 1
EXIT_SEMANTIC = 2
EXIT_PARSE = 3


class ParseError(Exception):
    """Malformed input file or query: exit code 3."""


class SemanticError(Exception):
    """Well-formed input describing an invalid model: exit code 2."""

    def __init__(self, message: str, certificate: Optional[dict] = None):
        super().__init__(message)
        self.certificate = certificate or {}


def _reject_float(text: str) -> Fraction:
    raise ParseError(
        f"floating point literal {text!r} is not exact; write a rational string"
    )


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_float=_reject_float, parse_constant=_reject_float)
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ParseError(f"{path} is not valid JSON: {err}") from err
    except (ValueError, RecursionError) as err:
        # bytes that are not UTF-8, an integer over the int-string digit
        # limit, nesting deeper than the interpreter's recursion limit
        raise ParseError(f"cannot parse {path}: {err}") from err


def _rationals(table: list, where: str) -> tuple[Fraction, ...]:
    """The entries as exact rationals (core.as_rational, once each); entry
    k that is not one is named where[k], a label built only then."""
    row = []
    for k, value in enumerate(table):
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise ParseError(f"{where}[{k}]: expected an exact rational, got {value!r}")
        try:
            row.append(as_rational(value))
        except (ValueError, TypeError, ZeroDivisionError) as err:
            raise ParseError(f"{where}[{k}]: {err}") from err
    return tuple(row)


def _require(data: Any, key: str, kind: type, where: str) -> Any:
    if not isinstance(data, dict) or key not in data:
        raise ParseError(f"{where}: missing required field {key!r}")
    value = data[key]
    if not isinstance(value, kind):
        raise ParseError(f"{where}: field {key!r} must be {kind.__name__}")
    return value


def _string_map(data: Any, where: str) -> dict[str, str]:
    if not isinstance(data, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in data.items()
    ):
        raise ParseError(f"{where} must be an object of node: value strings")
    return data


def load_network(path: str) -> CredalNet:
    """Parse a network file into a validated credal network.

    Format violations raise ParseError; a parseable file that describes an
    invalid model (cycle, incomplete local models, incoherence) raises
    SemanticError carrying a certificate.
    """
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be an object")
    declared = _require(data, "variables", list, path)
    variables = []
    for i, entry in enumerate(declared):
        where = f"{path}: variables[{i}]"
        node_id = _require(entry, "id", str, where)
        values = _require(entry, "values", list, where)
        if not values or not all(isinstance(v, str) for v in values):
            raise ParseError(f"{where}: values must be a nonempty list of strings")
        try:
            variables.append(VariableSpace(node_id, tuple(values)))
        except ValueError as err:
            raise ParseError(f"{where}: {err}") from err
    by_node = {v.node: v for v in variables}
    if len(by_node) != len(variables):
        raise ParseError(f"{path}: duplicate variable ids")

    edges = data.get("edges", [])
    if not isinstance(edges, list):
        raise ParseError(f"{path}: edges must be a list")
    pairs = []
    for i, e in enumerate(edges):
        if not (isinstance(e, list) and len(e) == 2 and all(isinstance(x, str) for x in e)):
            raise ParseError(f"{path}: edges[{i}] must be a [parent, child] pair")
        pairs.append((e[0], e[1]))
    try:
        dag = Dag([v.node for v in variables], pairs)
    except DagError as err:
        raise ParseError(f"{path}: {err}") from err

    cycle = dag.validate()
    if not cycle.acyclic:
        raise SemanticError(
            "graph has a cycle",
            certificate={"reason": "cycle", "cycle": list(cycle.cycle)},
        )

    parent_spaces = {n: Space(by_node[p] for p in dag.parents(n)) for n in dag.nodes}

    entries = data.get("local_models", [])
    if not isinstance(entries, list):
        raise ParseError(f"{path}: local_models must be a list")
    slots: dict[tuple[str, int], list[Gamble]] = {}
    for i, entry in enumerate(entries):
        where = f"{path}: local_models[{i}]"
        node_id = _require(entry, "node", str, where)
        if node_id not in by_node:
            raise ParseError(f"{where}: unknown node {node_id!r}")
        given = _string_map(_require(entry, "given", dict, where), f"{where}: given")
        p_space = parent_spaces[node_id]
        try:
            p_idx = p_space.index_of(p_space.configuration(given))
        except (ScopeError, KeyError) as err:
            raise ParseError(f"{where}: given: {err}") from err
        if (node_id, p_idx) in slots:
            raise SemanticError(
                f"local model for {node_id!r} given {given} appears twice",
                certificate={
                    "reason": "duplicate-configuration",
                    "node": node_id,
                    "given": given,
                },
            )
        node_space = Space([by_node[node_id]])
        tables = _require(entry, "gambles", list, where)
        gambles = []
        for t, table in enumerate(tables):
            if not isinstance(table, list) or len(table) != node_space.size:
                raise ParseError(
                    f"{where}: gambles[{t}] must be a table of {node_space.size} rationals"
                )
            row = _rationals(table, f"{where}: gambles[{t}]")
            if all(v == 0 for v in row):
                raise SemanticError(
                    f"local model for {node_id!r} assesses the zero gamble",
                    certificate={
                        "reason": "zero-assessment",
                        "node": node_id,
                        "given": given,
                    },
                )
            gambles.append(Gamble(node_space, row))
        slots[(node_id, p_idx)] = gambles

    assessments: dict[str, list[list[Gamble]]] = {}
    for n in dag.nodes:
        per_cfg = []
        for p_idx in range(parent_spaces[n].size):
            if (n, p_idx) not in slots:
                cfg = parent_spaces[n].config_at(p_idx)
                raise SemanticError(
                    f"local model for {n!r} given parent configuration "
                    f"{cfg.as_dict()} is missing",
                    certificate={
                        "reason": "missing-configuration",
                        "node": n,
                        "given": cfg.as_dict(),
                    },
                )
            per_cfg.append(slots[(n, p_idx)])
        assessments[n] = per_cfg

    try:
        return CredalNet(dag, variables, assessments)
    except IncoherentLocalModel as err:
        cert = {
            "reason": "incoherent-local-model",
            "node": err.node,
            "given": err.parent_config.as_dict(),
        }
        if err.report.certificate is not None:
            cert["vanishing_combination"] = [
                [i, str(c)] for i, c in enumerate(err.report.certificate) if c != 0
            ]
        raise SemanticError(str(err), certificate=cert) from err
    except NetworkError as err:
        raise SemanticError(str(err)) from err


def serialize_network(net: CredalNet) -> dict:
    """The network-file object for a net; load_network inverts it exactly."""
    local_models = []
    for s in net.dag.nodes:
        p_space = net.parent_space(s)
        for p_idx in range(p_space.size):
            local_models.append(
                {
                    "node": s,
                    "given": p_space.config_at(p_idx).as_dict(),
                    "gambles": [
                        [str(v) for v in g.table] for g in net.assessments[(s, p_idx)]
                    ],
                }
            )
    return {
        "variables": [
            {"id": v.node, "values": list(v.values)} for v in net.variables.values()
        ],
        "edges": [list(e) for e in net.dag.edges],
        "local_models": local_models,
    }


def parse_joint_gamble(net: CredalNet, data: Any, where: str) -> Gamble:
    scope = _require(data, "scope", list, where)
    if not all(isinstance(n, str) for n in scope):
        raise ParseError(f"{where}: scope must be a list of node ids")
    unknown = [n for n in scope if n not in net.variables]
    if unknown:
        raise ParseError(f"{where}: scope mentions unknown nodes {unknown}")
    if len(set(scope)) != len(scope):
        raise ParseError(f"{where}: scope has duplicate nodes")
    space = Space(net.variables[n] for n in scope)
    table = _require(data, "table", list, where)
    if len(table) != space.size:
        raise ParseError(
            f"{where}: table needs {space.size} entries for scope {sorted(scope)}, "
            f"got {len(table)}"
        )
    row = _rationals(table, f"{where}: table")
    return Gamble(space, row)


def _configuration(mapping: dict[str, str], space: Space, where: str) -> Configuration:
    try:
        return space.configuration(mapping)
    except (ScopeError, KeyError) as err:
        raise ParseError(f"{where}: {err}") from err


def _pairs_json(vector) -> list:
    """An lp.IntVector as [index, "n/den in lowest terms"] pairs."""
    pairs, den = vector
    return [[k, str(Fraction(n, den))] for k, n in pairs]


def _membership_json(res) -> dict:
    return {
        "member": res.member,
        "route": res.route,
        "witness": _pairs_json(res.witness) if res.witness is not None else None,
        "separator": [str(v) for v in res.separator] if res.separator is not None else None,
    }


def _node_query_fields(net: CredalNet, query: Any, where: str):
    """Shared plumbing of marginal-member and irrelevance-check queries."""
    node = _require(query, "node", str, where)
    if node not in net.variables:
        raise ParseError(f"{where}: unknown node {node!r}")
    parent_map = _string_map(query.get("parent", {}), f"{where}: parent")
    parent = _configuration(parent_map, net.parent_space(node), f"{where}: parent")
    given_map = _string_map(query.get("given", {}), f"{where}: given")
    irrelevant = tuple(sorted(given_map))
    unknown = [n for n in irrelevant if n not in net.variables]
    if unknown:
        raise ParseError(f"{where}: given mentions unknown nodes {unknown}")
    nnd = set(net.dag.non_parent_non_descendants(node))
    outside = [n for n in irrelevant if n not in nnd]
    if outside:
        raise SemanticError(
            f"{where}: {outside} are not non-parent-non-descendants of {node!r}"
        )
    given = _configuration(
        given_map, Space(net.variables[n] for n in irrelevant), f"{where}: given"
    )
    table = _require(query, "gamble", list, where)
    node_space = net.node_space(node)
    if len(table) != node_space.size:
        raise ParseError(
            f"{where}: gamble must have {node_space.size} entries (values of {node!r})"
        )
    row = _rationals(table, f"{where}: gamble")
    if all(v == 0 for v in row):
        raise SemanticError(
            f"{where}: the zero gamble has no desirability status",
            {"reason": "zero-gamble"},
        )
    return node, parent, given, Gamble(node_space, row)


def _query_count(query: dict, key: str, default: int, where: str) -> int:
    value = query.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ParseError(f"{where}: {key} must be a nonnegative integer, got {value!r}")
    return value


def run_query(net: CredalNet, joint: JointModel, query: Any, seed: int, where: str) -> dict:
    kind = _require(query, "kind", str, where)
    if kind == "coherence":
        rep = joint.contains_zero()
        result = {"coherent": not rep.exists, "route": rep.route}
        if rep.combination is not None:
            result["vanishing_combination"] = _pairs_json(rep.combination)
        return {"kind": kind, "result": result}
    if kind in ("member", "condition-member"):
        f = parse_joint_gamble(net, _require(query, "gamble", dict, where), where)
        observed = None
        if kind == "condition-member":
            given_map = _string_map(query.get("given", {}), f"{where}: given")
            unknown = [n for n in given_map if n not in net.variables]
            if unknown:
                raise ParseError(f"{where}: given mentions unknown nodes {unknown}")
            space = Space(net.variables[n] for n in sorted(given_map))
            observed = _configuration(given_map, space, f"{where}: given")
        try:
            res = joint.member_with_certificate(f, given=observed)
        except ZeroGambleError as err:
            raise SemanticError(f"{where}: {err}", {"reason": "zero-gamble"}) from err
        except NetworkError as err:
            raise SemanticError(f"{where}: {err}") from err
        return {"kind": kind, "result": _membership_json(res)}
    if kind in ("lower-prevision", "upper-prevision"):
        f = parse_joint_gamble(net, _require(query, "gamble", dict, where), where)
        value = (
            joint.lower_prevision(f) if kind == "lower-prevision" else joint.upper_prevision(f)
        )
        return {"kind": kind, "result": {"value": str(value)}}
    if kind == "marginal-member":
        _, parent, given, f = _node_query_fields(net, query, where)
        res = joint.member_with_certificate(f, given=parent.combine(given))
        return {"kind": kind, "result": _membership_json(res)}
    if kind == "irrelevance-check":
        node, parent, given, f = _node_query_fields(net, query, where)
        check = joint.check_irrelevance(node, parent, given, f)
        return {
            "kind": kind,
            "result": {
                "local_member": check.local_member,
                "joint_member": check.joint_member,
                "agree": check.agree,
            },
        }
    if kind == "verify-all":
        report = joint.verify_requirements(
            random.Random(seed),
            gambles_per_slot=_query_count(query, "gambles_per_slot", 10, where),
            subset_cap=_query_count(query, "subset_cap", 8, where),
        )
        return {"kind": kind, "result": _verification_json(report)}
    raise ParseError(f"{where}: unknown query kind {kind!r}")


def _violation_json(v) -> dict:
    return {
        "kind": v.kind,
        "node": v.node,
        "parent": list(v.parent_values),
        "irrelevant": list(v.irrelevant),
        "given": list(v.given_values),
        "gamble": [str(x) for x in v.gamble],
        "local_member": v.local_member,
        "joint_member": v.joint_member,
        "detail": v.detail,
    }


def _verification_json(report: VerificationReport) -> dict:
    return {
        "ok": report.ok,
        "zero_free": report.zero_free,
        "atoms_checked": report.atoms_checked,
        "negatives_checked": report.negatives_checked,
        "irrelevance_checked": report.irrelevance_checked,
        "budget_exhausted": report.budget_exhausted,
        "minimal_by_construction": report.minimal_by_construction,
        "violations": [_violation_json(v) for v in report.violations],
    }


def _audit_json(report: AuditReport) -> dict:
    return {
        "ok": report.ok,
        "checked": report.checked,
        "generators_checked": report.generators_checked,
        "all_positive": report.all_positive,
        "total_mass_one": report.total_mass_one,
        "failures": list(report.failures),
    }


def _network_summary(net: CredalNet) -> dict:
    return {
        "nodes": len(net.dag.nodes),
        "edges": len(net.dag.edges),
        "joint_size": net.joint_space.size,
        "generator_count": net.generator_count(),
    }


def _emit(report: dict) -> None:
    print(json.dumps(report, indent=2, sort_keys=True))


def _parse_mutation(text: str) -> tuple[str, int, int]:
    parts = text.rsplit(":", 2)
    if len(parts) != 3:
        raise ParseError("--mutate-flip expects NODE:PARENT_INDEX:GENERATOR_INDEX")
    node, p, k = parts
    try:
        return node, int(p), int(k)
    except ValueError as err:
        raise ParseError(f"--mutate-flip: {err}") from err


def cmd_validate(args) -> int:
    net = load_network(args.network)
    _emit(
        {
            "command": "validate",
            "valid": True,
            "network": _network_summary(net),
            "local_models": len(net.assessments),
        }
    )
    return EXIT_PASS


def cmd_query(args) -> int:
    net = load_network(args.network)
    joint = net.build_joint(cap=args.cap)
    data = _load_json(args.query)
    where = args.query
    queries = data if isinstance(data, list) else [data]
    answered = [
        run_query(net, joint, q, args.seed, f"{where}[{i}]") for i, q in enumerate(queries)
    ]
    _emit(
        {
            "command": "query",
            "seed": args.seed,
            "generator_count": len(joint.generators),
            "network": _network_summary(net),
            "queries": answered,
        }
    )
    return EXIT_PASS


def cmd_verify(args) -> int:
    net = load_network(args.network)
    mutation = args.mutate_flip
    mutate = _parse_mutation(mutation) if mutation is not None else None
    try:
        joint = net.build_joint(cap=args.cap, mutate_flip=mutate)
    except GeneratorCapError:
        raise
    except NetworkError as err:
        raise SemanticError(str(err)) from err
    sweep = joint.verify_requirements(
        random.Random(args.seed),
        gambles_per_slot=args.gambles_per_slot,
        subset_cap=args.subset_cap,
        max_checks=args.budget,
    )
    audit = positivity_audit(
        PreciseNet.from_witnesses(net),
        joint,
        random.Random(args.seed + 1_000_003),
        samples=args.audit_samples,
    )
    failed = bool(sweep.violations) or not audit.ok
    # top-level ok mirrors the exit code: no counterexample found; an
    # exhausted budget shows up in sweep.budget_exhausted and sweep.ok
    _emit(
        {
            "command": "verify",
            "seed": args.seed,
            "mutation": mutation,
            "ok": not failed,
            "generator_count": len(joint.generators),
            "sweep": _verification_json(sweep),
            "positivity_audit": _audit_json(audit),
        }
    )
    return EXIT_VERIFY_FAILED if failed else EXIT_PASS


class _Parser(argparse.ArgumentParser):
    """Usage errors are parse errors: exit 3, not argparse's own exit 2."""

    def error(self, message: str):
        raise ParseError(message)


def _count(text: str) -> int:
    """A cap, sweep size or budget given on the command line."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="credalcones",
        description="Exact inference for credal networks under epistemic irrelevance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a network file")
    p.add_argument("network", help="network JSON file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("query", help="answer queries against the joint model")
    p.add_argument("network", help="network JSON file")
    p.add_argument("query", help="query JSON file (one object or a list)")
    p.add_argument("--seed", type=int, default=0, help="seed for verify-all queries")
    p.add_argument(
        "--cap",
        type=_count,
        default=DEFAULT_GENERATOR_CAP,
        help=f"maximum number of joint generators (default {DEFAULT_GENERATOR_CAP})",
    )
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("verify", help="sweep the model requirements and audit positivity")
    p.add_argument("network", help="network JSON file")
    p.add_argument("--seed", type=int, default=0, help="seed for sampled gambles")
    p.add_argument(
        "--cap",
        type=_count,
        default=DEFAULT_GENERATOR_CAP,
        help=f"maximum number of joint generators (default {DEFAULT_GENERATOR_CAP})",
    )
    p.add_argument(
        "--gambles-per-slot",
        type=_count,
        default=10,
        help="sampled gambles per (node, parent configuration)",
    )
    p.add_argument(
        "--subset-cap",
        type=_count,
        default=8,
        help="sampled subsets of non-parent-non-descendants when exhaustive is too big",
    )
    p.add_argument(
        "--audit-samples",
        type=_count,
        default=50,
        help="random conic combinations scored by the positivity audit",
    )
    p.add_argument(
        "--budget",
        type=_count,
        default=None,
        help=(
            "maximum number of irrelevance checks, one per observation of a slot "
            "gamble (deterministic); the atoms and the joint size + "
            "--gambles-per-slot nonpositive gambles are checked outside it"
        ),
    )
    p.add_argument(
        "--mutate-flip",
        default=None,
        metavar="NODE:PARENT_INDEX:GENERATOR_INDEX",
        help="negate every joint product of one local generator before verifying",
    )
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except GeneratorCapError as err:
        report = {
            "command": args.command,
            "valid": False,
            "reason": "generator-cap",
            "count": err.count,
            "cap": err.cap,
        }
        _emit(report)
        return EXIT_SEMANTIC
    except SemanticError as err:
        report = {"command": args.command, "valid": False, **err.certificate}
        report.setdefault("reason", str(err))
        _emit(report)
        return EXIT_SEMANTIC
    except PivotLimitError:
        _emit({"command": args.command, "valid": False, "reason": "pivot-limit"})
        return EXIT_SEMANTIC
    except WorkCapError as err:
        report = {
            "command": args.command,
            "valid": False,
            "reason": "work-cap",
            "cells": err.cells,
            "cap": err.cap,
        }
        _emit(report)
        return EXIT_SEMANTIC
    except LpError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
