"""End-to-end CLI behavior: every subcommand, the JSON mode, and the exit
code contract (0 ok/true, 1 false/fail, 2 parse, 3 guard, 4 capability,
70 internal fault)."""

import argparse
import hashlib
import json
import runpy
import sys
from pathlib import Path

import pytest

from factorcat import decode_morphism
from factorcat.cli import JSON_DEPTH_BOUND, _json_arg, main

from builders import needs_digit_limit

DATA = Path(__file__).resolve().parent / "data"

F_2_6 = json.dumps({"monoid": "zx", "domain": [2], "codomain": [6], "map": [1]})
G_5_105 = json.dumps({"monoid": "zx", "domain": [5], "codomain": [105], "map": [1]})
WORKED = json.dumps(
    {"monoid": "zx", "domain": [6, 1, 35], "codomain": [2, 7, 33, 65], "map": [1, 3, 1, 3]}
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    return code, json.loads(out)


class TestHom:
    def test_worked_count(self, capsys):
        code, payload = run_json(capsys, "hom", "--monoid", "zx", "[6,35]", "[2,3,5,7]")
        assert code == 0
        assert payload["count"] == 1
        assert payload["morphisms"][0]["map"] == [1, 1, 2, 2]

    def test_two_morphisms(self, capsys):
        code, payload = run_json(capsys, "hom", "--monoid", "zx", "[1,2]", "[1,2]")
        assert payload["count"] == 2

    def test_empty_codomain(self, capsys):
        code, payload = run_json(capsys, "hom", "--monoid", "zx", "[2]", "[]")
        assert payload["count"] == 0

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "hom", "--monoid", "zx", "[6,35]", "[2,3,5,7]")
        assert out.splitlines()[0] == "count 1"

    def test_missing_monoid_is_parse_error(self, capsys):
        code, _, err = run(capsys, "hom", "[2]", "[4]")
        assert code == 2 and "monoid" in err

    def test_bad_json_is_parse_error(self, capsys):
        code, _, _ = run(capsys, "hom", "--monoid", "zx", "[2]", "nope")
        assert code == 2

    @needs_digit_limit
    def test_an_int_past_the_digit_limit_is_the_parse_error_json_loads_gives(self, capsys):
        text = "[" + "7" * 5000 + "]"
        with pytest.raises(ValueError) as info:
            json.loads(text)
        assert run(capsys, "hom", "--monoid", "zx", text, "[1]") == (2, "", f"error: {info.value}\n")

    def test_guard_exit_code(self, capsys):
        code, _, err = run(capsys, "hom", "--monoid", "zx", "[1,1]", "[" + ("1," * 24) + "1]")
        assert code == 3 and "guard" in err

    def test_deeply_nested_json_is_parse_error(self, capsys):
        deep = "[" * 20000 + "]" * 20000
        code, _, err = run(capsys, "hom", "--monoid", "zx", deep, "[1]")
        assert code == 2 and "nested too deeply" in err

    def test_json_nested_to_the_bound_is_parsed_and_one_level_past_it_is_refused(self, capsys):
        at = "[" * JSON_DEPTH_BOUND + "]" * JSON_DEPTH_BOUND
        code, _, err = run(capsys, "hom", "--monoid", "zx", at, "[1]")
        assert code == 2 and err.startswith("error: zx: expected")  # parsed, then not an element
        code, _, err = run(capsys, "hom", "--monoid", "zx", f"[{at}]", "[1]")
        assert code == 2 and err == "error: JSON argument is nested too deeply\n"

    def test_non_string_monoid_name_is_parse_error(self, capsys):
        m = json.dumps({"monoid": 1, "domain": [], "codomain": [], "map": []})
        code, _, err = run(capsys, "check", "--iso", m)
        assert code == 2 and "monoid name" in err

    def test_long_codomain_over_one_entry_domain(self, capsys):
        # one candidate map, decided without a search as deep as the codomain
        codomain = json.dumps([1] * 1500)
        code, payload = run_json(capsys, "hom", "--monoid", "zx", "[1]", codomain)
        assert code == 0
        assert payload["count"] == 1
        assert payload["morphisms"][0]["map"] == [1] * 1500
        code, payload = run_json(capsys, "hom", "--monoid", "zx", "[2]", codomain)
        assert code == 0 and payload["count"] == 0


class TestCompose:
    def test_round_trip(self, capsys):
        g = json.dumps(
            {"monoid": "zx", "domain": [6, 35], "codomain": [2, 3, 5, 7], "map": [1, 1, 2, 2]}
        )
        f = json.dumps({"monoid": "zx", "domain": [210], "codomain": [6, 35], "map": [1, 1]})
        code, payload = run_json(capsys, "compose", g, f)
        assert code == 0
        assert payload["map"] == [1, 1, 1, 1]
        decode_morphism(payload)

    def test_mismatch_is_parse_error(self, capsys):
        code, _, _ = run(capsys, "compose", F_2_6, G_5_105)
        assert code == 2


class TestCheck:
    def test_wprime_true(self, capsys):
        code, payload = run_json(capsys, "check", "--wprime", F_2_6)
        assert code == 0 and payload["result"] is True
        assert payload["witness_r"] == 3

    def test_weq_witness(self, capsys):
        m = json.dumps(
            {"monoid": "zx", "domain": [210], "codomain": [2, 3, 5, 7], "map": [1, 1, 1, 1]}
        )
        code, payload = run_json(capsys, "check", "--weq", m)
        assert code == 0 and payload["witness_r"] == 1

    def test_iso_false_exit_one(self, capsys):
        code, payload = run_json(capsys, "check", "--iso", F_2_6)
        assert code == 1 and payload["result"] is False

    def test_iso_units(self, capsys):
        m = json.dumps({"monoid": "zx", "domain": [2, 3], "codomain": [-3, -2], "map": [2, 1]})
        code, payload = run_json(capsys, "check", "--iso", m)
        assert code == 0 and payload["units"] == [-1, -1]

    def test_classify_alias(self, capsys):
        code, payload = run_json(capsys, "classify", "--wirr", F_2_6)
        assert code == 0 and payload["result"] is True

    def test_epic_monic(self, capsys):
        drop = json.dumps({"monoid": "zx", "domain": [6, 1, 1], "codomain": [6], "map": [1]})
        code, payload = run_json(capsys, "check", "--epic", drop)
        assert code == 0 and payload["injective"] is True
        code, payload = run_json(capsys, "check", "--monic", drop)
        assert code == 1 and payload["surjective"] is False

    def test_capability_exit_code(self, capsys):
        m = json.dumps(
            {"monoid": "interval", "domain": ["1/2"], "codomain": ["1/2"], "map": [1]}
        )
        code, _, err = run(capsys, "check", "--weq", m)
        assert code == 4

    def test_invalid_morphism_is_parse_error(self, capsys):
        m = json.dumps({"monoid": "zx", "domain": [6, 2, 1], "codomain": [6], "map": [1]})
        code, _, _ = run(capsys, "check", "--weq", m)
        assert code == 2


class TestDecompose:
    def test_worked_example(self, capsys):
        code, payload = run_json(capsys, "decompose", WORKED)
        assert code == 0
        assert payload["epsilon"]["map"] == [1, 3]
        assert payload["delta"]["codomain"] == [66, 455]
        assert payload["phi"]["map"] == [1, 2, 1, 2]
        assert payload["ratios"] == [11, 13]
        assert payload["dropped_unit"] == 1
        for key in ("epsilon", "delta", "phi"):
            decode_morphism(payload[key])


class TestChain:
    def test_divisibility_chain(self, capsys):
        m = json.dumps({"monoid": "zx", "domain": [1], "codomain": [60], "map": [1]})
        code, payload = run_json(capsys, "chain", m)
        assert code == 0
        assert payload["irr_count"] == 4
        assert len(payload["steps"]) == 4
        for step in payload["steps"]:
            decode_morphism(step)


class TestTensor:
    def test_worked_example(self, capsys):
        code, payload = run_json(capsys, "tensor", F_2_6, G_5_105)
        assert code == 0
        assert payload == {
            "monoid": "zx",
            "domain": [2, 5],
            "codomain": [6, 105],
            "map": [1, 2],
        }


class TestWeakdiv:
    def test_true_direction(self, capsys):
        code, payload = run_json(capsys, "weakdiv", F_2_6, G_5_105)
        assert code == 0
        assert payload == {"divides": True, "s": 3, "r": 21}

    def test_false_direction(self, capsys):
        code, payload = run_json(capsys, "weakdiv", G_5_105, F_2_6)
        assert code == 1 and payload["divides"] is False


class TestDivisors:
    def test_twelve(self, capsys):
        m = json.dumps({"monoid": "zx", "domain": [1], "codomain": [12], "map": [1]})
        code, payload = run_json(capsys, "divisors", m)
        assert code == 0
        assert payload["classes"] == [1, 2, 3, 4, 6, 12]
        assert payload["count"] == 6

    def test_witness_beyond_the_bound_is_a_guard_error(self, capsys):
        m = json.dumps({"monoid": "zx", "domain": [1], "codomain": [10**21], "map": [1]})
        code, _, err = run(capsys, "divisors", m)
        assert code == 3 and "2**31" in err


class TestFactorizations:
    def test_integer(self, capsys):
        code, payload = run_json(capsys, "factorizations", "--monoid", "zx", "12")
        assert code == 0
        assert payload == {"element": 12, "classes": [[2, 2, 3]], "truncated": False}

    def test_free(self, capsys):
        code, payload = run_json(
            capsys, "factorizations", "--monoid", "free:ab", '"a^2*b"'
        )
        assert code == 0
        assert payload["classes"] == [["a", "a", "b"]]

    def test_interval_capability(self, capsys):
        code, _, _ = run(capsys, "factorizations", "--monoid", "interval", '"1/2"')
        assert code == 4

    def test_negative_max_count_is_parse_error(self, capsys):
        code, out, err = run(capsys, "factorizations", "--monoid", "zx", "12", "--max-count", "-1")
        assert code == 2 and out == "" and "max_count" in err

    def test_zero_max_count_truncates(self, capsys):
        code, out, _ = run(capsys, "factorizations", "--monoid", "zx", "12", "--max-count", "0")
        assert code == 0 and out.startswith("0 class(es) [truncated]")

    def test_free_degree_beyond_the_recursion_bound_is_a_guard_error(self, capsys):
        code, _, err = run(capsys, "factorizations", "--monoid", "free:ab", '"a^2000"')
        assert code == 3 and "degree bound 256" in err

    def test_free_exponent_beyond_the_decode_bound_is_a_guard_error(self, capsys):
        code, _, err = run(capsys, "factorizations", "--monoid", "free:ab", '"a^3000000"')
        assert code == 3 and "10000 generator copies" in err


class TestGraph:
    def test_small_graph(self, capsys):
        code, out, _ = run(capsys, "graph", "--monoid", "zx", "--pool", "[1,2]", "--max-len", "2")
        assert code == 0
        for node in ('"[]"', '"[1]"', '"[2]"', '"[1,1]"', '"[1,2]"', '"[2,1]"', '"[2,2]"'):
            assert node.replace(",", ", ") in out or node in out
        assert "style=dashed" in out and "style=bold" in out

    def test_empty_pool_single_node(self, capsys):
        code, out, _ = run(capsys, "graph", "--monoid", "zx", "--pool", "[]")
        assert code == 0
        assert out.count('"[]"') == 1
        assert "->" not in out

    def test_edges_follow_divisibility(self, capsys):
        code, out, _ = run(
            capsys, "graph", "--monoid", "zx", "--pool", "[2,3]", "--max-len", "1"
        )
        assert code == 0
        # 2 and 3 do not divide each other, and neither is invertible
        assert "->" not in out

    def test_guard(self, capsys):
        code, _, _ = run(
            capsys, "graph", "--monoid", "zx", "--pool", "[1,2,3,5,6,7]", "--max-len", "4"
        )
        assert code == 3

    def test_node_guard_refuses_before_rendering(self, capsys, monkeypatch):
        # 1001 objects, but only ~10^6 candidate maps: the node guard trips, not the universe's
        import factorcat.cli as cli

        monkeypatch.setattr(cli, "_render_dot", lambda u: pytest.fail("rendered past the guard"))
        pool = json.dumps(list(range(1, 1001)))
        code, out, err = run(capsys, "graph", "--monoid", "nat", "--pool", pool, "--max-len", "1")
        assert (code, out) == (3, "")
        assert "graph universe has 1001 nodes; guard is 1000" in err

    def test_golden_dot(self, capsys):
        # dashed weak equivalences, bold weakly irreducible edges, plain edges,
        # and no identity loops
        code, out, _ = run(
            capsys, "graph", "--monoid", "zx", "--pool", "[-1,1,2,6]", "--max-len", "2"
        )
        assert code == 0
        assert out == (DATA / "graph_zx_pool_-1_1_2_6_len2.dot").read_text(encoding="utf-8")

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "g.dot"
        code, out, _ = run(
            capsys, "graph", "--monoid", "zx", "--pool", "[2]", "--max-len", "1",
            "--out", str(target),
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("digraph factorization")

    @pytest.mark.parametrize("pool", ['"ab"', "{}"])
    def test_a_pool_that_is_not_an_array_is_a_parse_error(self, capsys, pool):
        code, out, err = run(capsys, "graph", "--monoid", "free:ab", "--pool", pool, "--max-len", "1")
        assert code == 2 and out == ""
        assert "expected a JSON array of elements" in err

    def test_out_file_in_a_missing_directory_is_a_parse_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "g.dot"
        code, out, err = run(
            capsys, "graph", "--monoid", "zx", "--pool", "[2,3]", "--max-len", "1",
            "--out", str(target),
        )
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write the graph") and "Traceback" not in err
        assert not target.parent.exists()

    def test_an_out_path_holding_a_nul_is_the_parse_error_open_gives(self, capsys):
        code, out, err = run(capsys, "graph", "--monoid", "zx", "--pool", "[2]", "--out", "g\0.dot")
        assert (code, out, err) == (2, "", "error: embedded null byte\n")


class TestVerify:
    def test_named_suites_pass(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "homset_formulas", "--suite", "adjunction",
            "--pool", "[1,2]", "--max-len", "2",
        )
        assert code == 0
        assert "homset_formulas" in out and "PASS" in out

    def test_json_report(self, capsys):
        code, payload = run_json(
            capsys, "verify", "--suite", "adjunction", "--pool", "[1,2]", "--max-len", "2"
        )
        assert code == 0
        assert payload[0]["suite"] == "adjunction"
        assert payload[0]["failures"] == []

    def test_the_default_json_is_the_recorded_bytes(self, capsys, monkeypatch, cold_default_verify):
        # the fixture's in-process reports, printed by verify, hash to the
        # stdout digest tests/compat.json recorded on every interpreter
        from factorcat import cli

        monkeypatch.setattr(cli, "run_suite", lambda u, names: cold_default_verify.reports)
        code, out, _ = run(capsys, "verify", "--json")
        recorded = json.loads((Path(__file__).resolve().parent / "compat.json").read_text())
        digests = {row["verify_json_sha256"]["0"] for row in recorded["interpreters"]}
        assert code == 0 and digests == {hashlib.sha256(out.encode()).hexdigest()}

    def test_interval_universe(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--monoid", "interval", "--pool", '["1/1","1/2"]',
            "--max-len", "2",
        )
        assert code == 0

    def test_interval_without_pool_is_parse_error(self, capsys):
        code, _, _ = run(capsys, "verify", "--monoid", "interval")
        assert code == 2

    def test_a_pool_that_is_not_an_array_is_a_parse_error(self, capsys):
        code, out, err = run(capsys, "verify", "--pool", "5")
        assert code == 2 and out == ""
        assert "expected a JSON array of elements" in err and "iterable" not in err

    @pytest.mark.parametrize("monoid", ["zx", "nat"])
    def test_an_empty_pool_is_the_parse_error_graph_gives(self, capsys, monoid):
        # '' is malformed JSON, not a missing --pool that falls back to the default
        _, _, graph_err = run(capsys, "graph", "--monoid", monoid, "--pool", "")
        code, out, err = run(capsys, "verify", "--monoid", monoid, "--pool", "", "--suite", "adjunction")
        assert code == 2 and out == ""
        assert err == graph_err == "error: Expecting value: line 1 column 1 (char 0)\n"

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2


def test_any_other_exception_is_one_internal_error_line_and_exit_70(capsys, monkeypatch):
    from dataclasses import replace

    from factorcat import oracle

    def raises(*args):
        raise AttributeError("miswired")

    monkeypatch.setitem(oracle.LAWS, "adjunction_roundtrip",
                        replace(oracle.LAWS["adjunction_roundtrip"], predicate=raises))
    assert run(capsys, "verify", "--suite", "adjunction") == (
        70, "", "error: internal: AttributeError: miswired\n")


def test_a_plain_value_error_is_a_fault_and_exits_70(capsys, monkeypatch):
    # exit 2 is an InvalidInputError only: a ValueError factorcat does not raise
    # on caller data comes from a fault
    from factorcat import cli

    def raises(*args):
        raise ValueError("miswired")

    monkeypatch.setattr(cli, "hom_set", raises)
    assert run(capsys, "hom", "--monoid", "zx", "[2]", "[6]") == (
        70, "", "error: internal: ValueError: miswired\n")


def test_a_second_main_call_builds_no_parser(capsys, monkeypatch):
    argv = ["weakdiv", F_2_6, G_5_105]
    assert main(argv) == 0
    built, init = [], argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    assert main(argv) == 0 and built == []
    assert capsys.readouterr().out == "divides: true (s = 3, r = 21)\n" * 2


@pytest.mark.parametrize("argv, code", [(["weakdiv", F_2_6, G_5_105], 0), (["weakdiv", G_5_105, F_2_6], 1)])
def test_the_module_entry_point_exits_with_the_code_of_main(capsys, monkeypatch, argv, code):
    # python -m factorcat in this process, so that __main__.py runs under the line trace too
    expected = (main(argv), capsys.readouterr().out)
    monkeypatch.setattr(sys, "argv", ["factorcat", *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("factorcat", run_name="__main__")
    assert (exc.value.code, capsys.readouterr().out) == expected and expected[0] == code


def test_round_trip_every_emitted_morphism(capsys):
    code, payload = run_json(capsys, "hom", "--monoid", "zx", "[1,2]", "[1,2]")
    assert code == 0
    for obj in payload["morphisms"]:
        decode_morphism(obj)


@pytest.mark.parametrize("text", [
    "[" * JSON_DEPTH_BOUND + "]" * JSON_DEPTH_BOUND,
    '{"map": ' * (JSON_DEPTH_BOUND - 1) + "[]" + "}" * (JSON_DEPTH_BOUND - 1),
    json.dumps(["[" * 5000, "{" * 5000]),  # brackets inside strings do not nest
    json.dumps([['"', "]" * 5000 + "[" * 5000]]),  # nor after an escaped quote
], ids=["lists", "objects", "strings", "escaped quote"])
def test_a_json_argument_within_the_depth_bound_parses_as_json_loads_does(text):
    assert _json_arg(text) == json.loads(text)


@pytest.mark.parametrize("text", [
    "[" * (JSON_DEPTH_BOUND + 1) + "]" * (JSON_DEPTH_BOUND + 1),
    '{"map": ' * JSON_DEPTH_BOUND + "[]" + "}" * JSON_DEPTH_BOUND,
    "[" * 5000,  # unclosed: refused by depth before the parser sees it
], ids=["lists", "objects", "unclosed"])
def test_a_json_argument_past_the_depth_bound_is_refused_before_parsing(text, monkeypatch):
    monkeypatch.setattr(json, "loads", None)  # never reached
    with pytest.raises(ValueError, match="^JSON argument is nested too deeply$"):
        _json_arg(text)
