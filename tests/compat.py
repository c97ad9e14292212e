"""Compare the observable output of the library across Python interpreters.

Run ``python tests/compat.py PYTHON [PYTHON ...]`` from any directory, each
argument the path of an interpreter.  Only the standard library is needed,
in this script and in the interpreters it drives, so an interpreter without
pytest or hypothesis can be checked.  For each interpreter it records:

- the sha256 of the stdout of ``python -m factorcat verify --json`` at
  seeds 0 and 3;
- the digest and call count that ``tests/cli_corpus.py`` prints;
- the sha256 of the stdout of each demo;
- ``correct`` and ``failed`` from the last line of
  ``bench/run.py --workload W --seed 0 --seconds 1`` for each workload.

Every command runs with ``-W error::DeprecationWarning -W
error::PendingDeprecationWarning -W error::ResourceWarning``, and with the
same filters in ``PYTHONWARNINGS``, so the processes a command starts inherit
them.  A command that exits non-zero is recorded as its exit code and the
last line of its stderr instead of a digest.  The table goes to stdout as
one JSON object; ``diverging`` names each field whose value is not the same
on every interpreter.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WARNINGS = ("error::DeprecationWarning", "error::PendingDeprecationWarning", "error::ResourceWarning")
SEEDS = (0, 3)
WORKLOADS = ("verify-default", "query-stream", "hom-enum")
TIMEOUT_S = 600


def _run(python: str, args: list) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONWARNINGS"] = ",".join(WARNINGS)
    flags = [flag for w in WARNINGS for flag in ("-W", w)]
    return subprocess.run([python, *flags, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=TIMEOUT_S)


def _failure(proc: subprocess.CompletedProcess) -> dict:
    lines = proc.stderr.strip().splitlines()
    return {"exit": proc.returncode, "stderr": lines[-1] if lines else ""}


def _stdout_sha256(python: str, args: list):
    proc = _run(python, args)
    if proc.returncode:
        return _failure(proc)
    return hashlib.sha256(proc.stdout.encode()).hexdigest()


def _corpus(python: str):
    proc = _run(python, [str(ROOT / "tests" / "cli_corpus.py")])
    return _failure(proc) if proc.returncode else proc.stdout.strip()


def _bench(python: str, workload: str):
    args = ["--workload", workload, "--seed", "0", "--seconds", "1"]
    proc = _run(python, [str(ROOT / "bench" / "run.py"), *args])
    if proc.returncode:
        return _failure(proc)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": last["correct"], "failed": last["failed"]}


def row(python: str) -> dict:
    version = _run(python, ["-c", "import platform; print(platform.python_version())"])
    return {
        "python": version.stdout.strip() or _failure(version),
        "verify_json_sha256": {
            str(seed): _stdout_sha256(python, ["-m", "factorcat", "verify", "--json", "--seed", str(seed)])
            for seed in SEEDS
        },
        "cli_corpus": _corpus(python),
        "demo_stdout_sha256": {
            demo.stem: _stdout_sha256(python, [str(demo)])
            for demo in sorted((ROOT / "demos").glob("0[1-7]_*.py"))
        },
        "bench": {workload: _bench(python, workload) for workload in WORKLOADS},
    }


def diverging(rows: list) -> list:
    """The fields, as dotted paths, whose value is not the same in every row."""
    def leaves(value, path):
        if isinstance(value, dict) and "exit" not in value:
            for key, inner in value.items():
                yield from leaves(inner, f"{path}.{key}" if path else key)
        else:
            yield path, json.dumps(value, sort_keys=True)

    seen: dict = {}
    for r in rows:
        for path, value in leaves({k: v for k, v in r.items() if k != "python"}, ""):
            seen.setdefault(path, set()).add(value)
    return [path for path, values in seen.items() if len(values) > 1]


def main(argv: list) -> int:
    if not argv:
        raise SystemExit(__doc__)
    rows = [row(python) for python in argv]
    print(json.dumps({"interpreters": rows, "diverging": diverging(rows)}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
