"""The narrative demos run to completion and print what they always printed.

All seven run, demo 07 included: it runs the verification suites on two
small universes and must report that every suite passed.  Each demo's stdout
is pinned by its sha256, the same on CPython 3.10 to 3.13, so an edit to a
demo or to the library that changes a printed line fails here.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-7]_*.py"))
STDOUT_SHA256 = {
    "01_hom_sets": "dc44fbcb38c520be0c289b45ff6982bd0406a01a46597e31b0855ac8bfab7476",
    "02_canonical_decomposition": "a5c0dec39deb17644f3f31f03b075bec2438ebceb0960c4e1706ed3b42a25431",
    "03_monoidal_structure": "05420a26115ec21008d742e951c139363369911db12670b881e716ebe75438e9",
    "04_weak_equivalences": "c8423baf695887a4dffeff48e4224ba59bc0008195d9edc89dd13d408af43865",
    "05_weak_divisibility": "c8601ac37a487a0a479499e3aa5662dd0cadbc4de645223ead0e59116dcfc97d",
    "06_atomic_chains_and_lengths": "0fe7917585c861621d13a43105cfac014884fa362badb18bcb620bf06af20d03",
    "07_verify_suites": "c9add2ed6d4883b1fbd8258c4ea3c0fb3094d15dbafeeaeb0f7adc2d0f4084fa",
}


def test_seven_demos_exist():
    assert [demo.stem for demo in DEMOS] == list(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    if demo.stem == "07_verify_suites":
        assert "all passed: True" in proc.stdout
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.stem], proc.stdout
