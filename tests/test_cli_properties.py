"""Property test of the CLI exit-code contract: whatever the argv and JSON
payloads, ``cli.main`` returns 0..4 and never lets an exception escape.

Options are passed as ``--name=value`` and positionals after ``--``, so a
payload that starts with a dash stays a payload instead of an argparse
usage error.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, example, given, settings, strategies as st

from factorcat.cli import main

MONOID_NAMES = ("zx", "nat", "interval", "free:ab", "free:", "free:a b", "bogus", "")

elements = st.one_of(
    st.integers(-40, 40),
    st.integers(-(10**30), 10**30),
    st.sampled_from(("1/2", "1/1", "2/3", "3/2", "1/0", "a", "b", "a^2*b", "1", "c", "a^0", "a^x")),
    st.none(),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
)
json_values = st.recursive(
    elements,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(("monoid", "domain", "codomain", "map")), inner, max_size=4),
    max_leaves=10,
)
morphism_objects = st.fixed_dictionaries(
    {
        "monoid": st.sampled_from(MONOID_NAMES) | elements,
        "domain": st.lists(elements, max_size=3) | elements,
        "codomain": st.lists(elements, max_size=4) | elements,
        "map": st.lists(st.integers(-1, 4), max_size=4) | elements,
    }
)
payloads = st.one_of(
    json_values.map(json.dumps),
    morphism_objects.map(json.dumps),
    st.text(max_size=12),
    st.integers(1, 3000).map(lambda depth: "[" * depth + "]" * depth),
)

ONE_PAYLOAD = ("check", "decompose", "chain", "divisors", "factorizations")
TWO_PAYLOADS = ("hom", "compose", "tensor", "weakdiv")
CHECK_KINDS = ("--iso", "--epic", "--monic", "--weq", "--wirr", "--wprime")


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(ONE_PAYLOAD + TWO_PAYLOADS + ("graph", "verify")))
    argv = [command]
    monoid = draw(st.none() | st.sampled_from(MONOID_NAMES))
    if monoid is not None:
        argv.append(f"--monoid={monoid}")
    if draw(st.booleans()):
        argv.append("--json")
    if command == "check":
        argv.append(draw(st.sampled_from(CHECK_KINDS)))
    if command == "factorizations":
        argv.append(f"--max-count={draw(st.integers(-1, 3))}")
    if command in ("graph", "verify"):
        # verify without a pool would run the whole default universe
        argv.append(f"--pool={draw(payloads)}")
        argv.append(f"--max-len={draw(st.integers(-1, 1))}")
        return argv
    count = 2 if command in TWO_PAYLOADS else 1
    return argv + ["--"] + [draw(payloads) for _ in range(count)]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(argv=["hom", "--monoid", "zx", "[" * 20000 + "]" * 20000, "[1]"])
@example(argv=["factorizations", "--monoid", "free:ab", '"a^2000"'])
@example(argv=["factorizations", "--monoid", "free:ab", '"a^3000000"'])
@given(argv=argvs())
def test_main_returns_a_contract_exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3, 4)
