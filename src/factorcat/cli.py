"""Command-line front end.

Subcommands: hom, compose, check (alias classify), decompose, chain, tensor,
weakdiv, divisors, factorizations, graph, verify.  Tuples on the command line
are JSON arrays of element encodings and the empty tuple is []; morphisms are
JSON objects with monoid/domain/codomain/map keys and 1-based maps.

Every ``_cmd_*`` handler returns ``(payload, text, ok)`` and prints nothing:
``main`` alone prints ``json.dumps(payload)`` under ``--json`` and ``text``
otherwise, and maps ``ok`` to exit code 0 or 1.  A payload of None means the
text is printed in both modes (the DOT of ``graph``); a text of None means
there is nothing to print (``graph --out`` wrote a file).

Exit codes: 0 ok or true, 1 false or suite failure, 2 parse or validation
error (a ValueError, raised on caller data only), 3 resource guard exceeded,
4 capability error, 70 any other exception (a fault in factorcat itself,
a TypeError or KeyError too, reported on one line without a traceback).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .errors import CapabilityError, GuardError
from .monoids import Monoid, monoid_by_name
from .category import (
    FactorTuple,
    compose,
    hom_set,
    identity_morphism,
    is_epic,
    is_isomorphism,
    is_monic,
)
from .monoidal import tensor_morphisms
from .weq import decompose_eip, is_weak_equivalence, quotient_witnesses, total_witness
from .divisibility import (
    atomic_chain,
    enumerate_irreducible_factorizations,
    is_weakly_irreducible,
    is_weakly_prime,
    weak_divisor_classes,
    weakly_divides,
)
from .oracle import (DEFAULT_POOL, SUITES, UniverseSpec, all_passed, run_suite, universe_morphisms,
                     universe_objects)
from .encoding import decode_morphism, decode_tuple, encode_morphism, encode_tuple

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_PARSE = 2
EXIT_GUARD = 3
EXIT_CAPABILITY = 4
EXIT_SOFTWARE = 70  # sysexits.h EX_SOFTWARE

GRAPH_NODE_GUARD = 1000


def _monoid_arg(args) -> Monoid:
    if not args.monoid:
        raise ValueError("--monoid is required for this command")
    return monoid_by_name(args.monoid)


def _json_arg(text: str):
    """Parse a JSON command-line argument.  Nesting too deep for the parser
    is a parse error like any other malformed input, not a crash."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON argument is nested too deeply") from None


def _load_morphism(args, attr="morphism"):
    monoid = monoid_by_name(args.monoid) if args.monoid else None
    return decode_morphism(_json_arg(getattr(args, attr)), monoid)


def _cmd_hom(args):
    monoid = _monoid_arg(args)
    domain = decode_tuple(monoid, _json_arg(args.domain))
    codomain = decode_tuple(monoid, _json_arg(args.codomain))
    morphisms = hom_set(domain, codomain)
    payload = {"count": len(morphisms), "morphisms": [encode_morphism(m) for m in morphisms]}
    lines = [f"count {len(morphisms)}"]
    lines += [f"map {list(m.values)}" for m in morphisms]
    return payload, "\n".join(lines), True


def _cmd_compose(args):
    g = _load_morphism(args, "second")
    f = _load_morphism(args, "first")
    out = compose(g, f)
    return encode_morphism(out), str(out), True


def _cmd_check(args):
    m = _load_morphism(args)
    kind = args.check
    payload: dict = {"check": kind}
    witness = ""
    if kind in ("weq", "wirr", "wprime"):
        payload["witness_r"] = m.monoid.encode(total_witness(m))
        witness = f" (r = {payload['witness_r']})"
    result = {"iso": is_isomorphism, "epic": is_epic, "monic": is_monic, "weq": is_weak_equivalence,
              "wirr": is_weakly_irreducible, "wprime": is_weakly_prime}[kind](m)
    if kind == "iso" and result:
        payload["units"] = [m.monoid.encode(r) for r in quotient_witnesses(m).per_index]
    elif kind in ("epic", "monic"):
        payload["injective" if kind == "epic" else "surjective"] = result
    payload["result"] = result
    return payload, f"{kind}: {str(result).lower()}{witness}", result


def _cmd_decompose(args):
    m = _load_morphism(args)
    d = decompose_eip(m)
    monoid = m.monoid
    payload = {
        "epsilon": encode_morphism(d.epsilon),
        "delta": encode_morphism(d.delta),
        "phi": encode_morphism(d.phi),
        "ratios": [monoid.encode(a) for a in d.ratios],
        "dropped_unit": monoid.encode(d.dropped_unit),
    }
    rows = {"epsilon": d.epsilon, "delta": d.delta, "phi": d.phi,
            "ratios": payload["ratios"], "unit": payload["dropped_unit"]}
    return payload, "\n".join(f"{name:<7} {value}" for name, value in rows.items()), True


def _cmd_chain(args):
    m = _load_morphism(args)
    chain = atomic_chain(m)
    payload = {
        "steps": [encode_morphism(s) for s in chain.steps],
        "tags": list(chain.tags),
        "irr_count": chain.irr_count,
    }
    lines = [f"{tag:<19} {step}" for tag, step in zip(chain.tags, chain.steps)]
    lines.append(f"weakly irreducible steps: {chain.irr_count}")
    return payload, "\n".join(lines), True


def _cmd_tensor(args):
    f = _load_morphism(args, "first")
    g = _load_morphism(args, "second")
    out = tensor_morphisms(f, g)
    return encode_morphism(out), str(out), True


def _cmd_weakdiv(args):
    f = _load_morphism(args, "first")
    g = _load_morphism(args, "second")
    divides = weakly_divides(f, g)
    payload = {
        "divides": divides,
        "s": f.monoid.encode(total_witness(f)),
        "r": f.monoid.encode(total_witness(g)),
    }
    text = f"divides: {str(divides).lower()} (s = {payload['s']}, r = {payload['r']})"
    return payload, text, divides


def _cmd_divisors(args):
    m = _load_morphism(args)
    monoid = m.monoid
    classes = weak_divisor_classes(m)
    payload = {
        "witness_r": monoid.encode(total_witness(m)),
        "classes": [monoid.encode(d) for d in classes],
        "count": len(classes),
    }
    text = f"r = {payload['witness_r']}: {payload['count']} classes {payload['classes']}"
    return payload, text, True


def _cmd_factorizations(args):
    monoid = _monoid_arg(args)
    element = monoid.decode(_json_arg(args.element))
    found = enumerate_irreducible_factorizations(monoid, element, max_count=args.max_count)
    payload = {
        "element": monoid.encode(element),
        "classes": [[monoid.encode(q) for q in cls] for cls in found.classes],
        "truncated": found.truncated,
    }
    text = f"{len(found.classes)} class(es)" + (" [truncated]" if found.truncated else "")
    return payload, text + "\n" + "\n".join(str(c) for c in payload["classes"]), True


def _cmd_graph(args):
    monoid = _monoid_arg(args)
    pool = decode_tuple(monoid, _json_arg(args.pool)).entries
    u = UniverseSpec(monoid=monoid, pool=pool, max_len=args.max_len)
    if u.object_count > GRAPH_NODE_GUARD:
        raise GuardError(f"graph universe has {u.object_count} nodes; guard is {GRAPH_NODE_GUARD}")
    dot = _render_dot(u)
    if not args.out or args.out == "-":
        return None, dot, True
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dot + "\n")
    except OSError as exc:
        raise ValueError(f"cannot write the graph: {exc}") from None
    return None, None, True


def _dot_id(t: FactorTuple) -> str:
    body = json.dumps(encode_tuple(t)).replace('"', '\\"')
    return f'"{body}"'


def _render_dot(u: UniverseSpec) -> str:
    lines = ["digraph factorization {", "  rankdir=LR;"]
    lines += [f"  {_dot_id(t)};" for t in universe_objects(u)]
    classify = u.monoid.is_divisibility
    for m in universe_morphisms(u):
        if m == identity_morphism(m.domain):
            continue
        attrs = [f'label="{list(m.values)}"']
        if classify:
            if is_weak_equivalence(m):
                attrs.append("style=dashed")
            elif is_weakly_irreducible(m):
                attrs.append("style=bold")
        lines.append(f"  {_dot_id(m.domain)} -> {_dot_id(m.codomain)} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines)


def _cmd_verify(args):
    monoid = monoid_by_name(args.monoid or "zx")
    if args.pool is None and monoid.name != "zx":
        raise ValueError("--pool is required for non-default monoids")
    pool = DEFAULT_POOL if args.pool is None else decode_tuple(monoid, _json_arg(args.pool)).entries
    u = UniverseSpec(monoid=monoid, pool=pool, max_len=args.max_len, seed=args.seed)
    reports = run_suite(u, args.suite or None)  # a module global: benchmarks patch cli.run_suite
    payload = [{"suite": r.suite, "cases": r.cases, "failures": r.failures} for r in reports]
    lines = []
    for r in reports:
        status = "PASS" if r.passed else f"FAIL ({sum(r.failed_by_law.values())} counterexamples)"
        lines.append(f"{r.suite}: {r.cases} cases, {status}")
        lines += [f"  counterexample: {json.dumps(failure)}" for failure in r.failures[:3]]
    return payload, "\n".join(lines), all_passed(reports)


@lru_cache(maxsize=1)  # built on the first main call, not at import, then reused
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factorcat",
        description="Finite computations in the factorization category of a monoid.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, helptext, handler, *positionals, aliases=()):
        sp = sub.add_parser(name, help=helptext, aliases=list(aliases))
        sp.add_argument("--monoid", help="monoid name: zx, nat, interval, free:<alphabet>")
        sp.add_argument("--json", action="store_true", help="emit JSON")
        for arg, arghelp in positionals:
            sp.add_argument(arg, help=arghelp)
        sp.set_defaults(handler=handler)
        return sp

    morphism = ("morphism", "morphism JSON")
    pair = (("first", "morphism JSON"), ("second", "morphism JSON"))
    add("hom", "enumerate the morphisms between two tuples", _cmd_hom,
        ("domain", "JSON array, e.g. '[6,35]'"), ("codomain", "JSON array, e.g. '[2,3,5,7]'"))
    add("compose", "compose two morphisms (second applied after first)", _cmd_compose,
        ("second", "morphism JSON applied second"), ("first", "morphism JSON applied first"))
    sp = add("check", "classify a morphism", _cmd_check, morphism, aliases=("classify",))
    group = sp.add_mutually_exclusive_group(required=True)
    for kind, helptext in (
        ("iso", "isomorphism"),
        ("epic", "epic (injective map)"),
        ("monic", "monic (surjective map)"),
        ("weq", "weak equivalence"),
        ("wirr", "weakly irreducible"),
        ("wprime", "weakly prime"),
    ):
        group.add_argument(f"--{kind}", dest="check", action="store_const", const=kind, help=helptext)
    add("decompose", "drop-units / divisibility / refactor decomposition", _cmd_decompose, morphism)
    add("chain", "atomic chain of a morphism", _cmd_chain, morphism)
    add("tensor", "tensor two morphisms", _cmd_tensor, *pair)
    add("weakdiv", "does the first morphism weakly divide the second?", _cmd_weakdiv, *pair)
    add("divisors", "weak divisor class representatives of a morphism", _cmd_divisors, morphism)

    sp = add("factorizations", "irreducible factorizations of an element", _cmd_factorizations,
             ("element", "element JSON"))
    sp.add_argument("--max-count", type=int, default=1000)

    sp = add("graph", "DOT graph of a bounded universe", _cmd_graph)
    sp.add_argument("--pool", required=True, help="JSON array of elements")
    sp.add_argument("--max-len", type=int, default=2)
    sp.add_argument("--out", default="-", help="output file, - for stdout")

    sp = add("verify", "run the law verification suites", _cmd_verify)
    sp.add_argument("--suite", action="append", choices=sorted(SUITES), help="suite name (repeatable)")
    sp.add_argument("--pool", help="JSON array of elements")
    sp.add_argument("--max-len", type=int, default=3)
    sp.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, text, ok = args.handler(args)
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except CapabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOFTWARE
    if text is not None:
        print(text if payload is None or not args.json else json.dumps(payload))
    return EXIT_OK if ok else EXIT_FALSE
