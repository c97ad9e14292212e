"""A fixed corpus of in-process ``cli.main`` calls and one SHA-256 over their
(argv, stdout, stderr, exit code), with no dependency beyond the library.

The corpus covers every subcommand in text and ``--json`` on seeded sampled
morphisms over ``zx`` and ``nat``, fixed ``hom``, ``factorizations``,
``graph`` and ``verify`` requests over all four monoids, and guard,
capability and parse errors.  Argparse usage errors are left out, since
their wording belongs to the Python version.  Run
``PYTHONPATH=src python tests/cli_corpus.py`` to print the digest and the
number of calls on any interpreter.
"""

import contextlib
import hashlib
import io
import json
import random

from factorcat import NAT, ZX, encode_morphism, identity_morphism
from factorcat.cli import main

from sampling import sample_morphism

CHECK_KINDS = ("--iso", "--epic", "--monic", "--weq", "--wirr", "--wprime")
MORPHISM_SAMPLES = 12  # per monoid


def _dump(m) -> str:
    return json.dumps(encode_morphism(m))


def _morphism_commands():
    for monoid in (ZX, NAT):
        rng = random.Random(f"cli-corpus-{monoid.name}")
        sampled = [sample_morphism(rng, monoid) for _ in range(MORPHISM_SAMPLES + 1)]
        for m, other in zip(sampled, sampled[1:]):
            text = _dump(m)
            for kind in CHECK_KINDS:
                yield ["check", kind, text]
            yield ["classify", "--wirr", text]
            yield ["decompose", text]
            yield ["chain", text]
            yield ["divisors", text]
            yield ["tensor", text, _dump(other)]
            yield ["weakdiv", text, _dump(other)]
            yield ["weakdiv", "--monoid", monoid.name, _dump(other), text]
            yield ["compose", _dump(identity_morphism(m.codomain)), text]
            yield ["compose", _dump(other), text]  # mostly not composable


def _fixed_commands():
    yield ["hom", "--monoid", "zx", "[6,35]", "[2,3,5,7]"]
    yield ["hom", "--monoid", "zx", "[1,2]", "[1,2]"]
    yield ["hom", "--monoid", "zx", "[2]", "[]"]
    yield ["hom", "--monoid", "zx", "[]", "[]"]
    yield ["hom", "--monoid", "zx", "[-1,2]", "[2,-1,3]"]
    yield ["hom", "--monoid", "nat", "[2,3]", "[6,1,2]"]
    yield ["hom", "--monoid", "interval", '["1/2","1/3"]', '["1/1","2/3","1/2"]']
    yield ["hom", "--monoid", "free:ab", '["a","b"]', '["a^2*b","b","1"]']
    yield ["hom", "--monoid", "zx", "[1]", json.dumps([1] * 40)]
    for element in ("12", "360", "-30", "1", "97"):
        yield ["factorizations", "--monoid", "zx", element]
    yield ["factorizations", "--monoid", "nat", "720", "--max-count", "3"]
    yield ["factorizations", "--monoid", "zx", "12", "--max-count", "0"]
    yield ["factorizations", "--monoid", "free:ab", '"a^2*b"']
    yield ["factorizations", "--monoid", "free:abc", '"a*b^2*c"']
    for pool, max_len in (("[1,2]", "2"), ("[-1,1,2,6]", "2"), ("[]", "3"), ("[2,3]", "1")):
        yield ["graph", "--monoid", "zx", "--pool", pool, "--max-len", max_len]
    yield ["graph", "--monoid", "nat", "--pool", "[1,2,4]", "--max-len", "2", "--out", "-"]
    yield ["graph", "--monoid", "interval", "--pool", '["1/1","1/2"]', "--max-len", "2"]
    yield ["graph", "--monoid", "free:ab", "--pool", '["a","1"]', "--max-len", "2"]
    yield ["verify", "--suite", "homset_formulas", "--suite", "adjunction",
           "--pool", "[1,2]", "--max-len", "2"]
    yield ["verify", "--suite", "weakdiv", "--pool", "[-1,2]", "--max-len", "2", "--seed", "3"]
    yield ["verify", "--suite", "iso", "--suite", "epic_monic", "--pool", "[1,2,6]", "--max-len", "2"]
    yield ["verify", "--monoid", "interval", "--pool", '["1/1","1/2"]', "--max-len", "2"]
    yield ["verify", "--monoid", "nat", "--pool", "[1,2]", "--max-len", "2",
           "--suite", "two_of_three", "--suite", "monoidal_laws"]
    yield ["verify", "--monoid", "free:ab", "--pool", '["a","b"]', "--max-len", "2",
           "--suite", "homset_formulas"]
    yield ["verify", "--pool", "[]"]


def _error_commands():
    zx = lambda d, c, mp: json.dumps({"monoid": "zx", "domain": d, "codomain": c, "map": mp})
    interval = json.dumps({"monoid": "interval", "domain": ["1/2"], "codomain": ["1/2"], "map": [1]})
    # guards
    yield ["hom", "--monoid", "zx", "[1,1]", json.dumps([1] * 25)]
    yield ["divisors", zx([1], [10**21], [1])]
    yield ["factorizations", "--monoid", "free:ab", '"a^2000"']
    yield ["factorizations", "--monoid", "free:ab", '"a^3000000"']
    yield ["graph", "--monoid", "zx", "--pool", "[1,2,3,5,6,7]", "--max-len", "4"]
    yield ["verify", "--pool", "[1,2]", "--max-len", "300000"]
    # capabilities
    for kind in ("--iso", "--epic", "--weq"):
        yield ["check", kind, interval]
    yield ["factorizations", "--monoid", "interval", '"1/2"']
    yield ["decompose", interval]
    # parse and validation errors
    yield ["hom", "[2]", "[4]"]
    yield ["hom", "--monoid", "zx", "[2]", "nope"]
    yield ["hom", "--monoid", "zx", "[" * 5000 + "]" * 5000, "[1]"]
    yield ["hom", "--monoid", "zx", "[0]", "[1]"]
    yield ["hom", "--monoid", "bogus", "[1]", "[1]"]
    yield ["hom", "--monoid", "zx", "5", "[1]"]
    yield ["check", "--iso", json.dumps({"monoid": 1, "domain": [], "codomain": [], "map": []})]
    yield ["check", "--weq", zx([6, 2, 1], [6], [1])]
    yield ["check", "--weq", zx([6], [6], "1")]
    yield ["check", "--weq", json.dumps([1])]
    yield ["check", "--weq", json.dumps({"monoid": "zx", "domain": [2]})]
    yield ["check", "--weq", "--monoid", "nat", zx([2], [6], [1])]
    yield ["compose", zx([2], [6], [1]), zx([5], [105], [1])]
    yield ["tensor", zx([2], [6], [1]), interval]
    yield ["factorizations", "--monoid", "zx", "12", "--max-count", "-1"]
    yield ["factorizations", "--monoid", "zx", '"12"']
    yield ["graph", "--monoid", "zx", "--pool", "[0]"]
    yield ["graph", "--pool", "[1]"]
    yield ["verify", "--monoid", "interval"]
    yield ["verify", "--pool", "[0]"]


def corpus():
    yield from _morphism_commands()
    yield from _fixed_commands()
    yield from _error_commands()


def corpus_digest() -> tuple[str, int]:
    digest = hashlib.sha256()
    count = 0
    for argv in corpus():
        for flags in ((), ("--json",)):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*argv, *flags])
            digest.update(json.dumps([argv, flags, out.getvalue(), err.getvalue(), code]).encode())
            count += 1
    return digest.hexdigest(), count


if __name__ == "__main__":
    print(*corpus_digest())
