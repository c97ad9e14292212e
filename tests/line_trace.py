"""List every line of ``src/factorcat`` that the in-process tests never run.

Run ``PYTHONPATH=src python tests/line_trace.py`` from the repository root.
It installs a ``sys.settrace`` (and ``threading.settrace``) line tracer for
code under ``src/factorcat`` before ``factorcat`` is first imported, runs
``pytest.main(["tests", "-q"])`` in this process, and then prints
``file:line: source`` for each line that compiles to bytecode yet never ran.
A forked child inherits the trace, and ``os._exit``, which it leaves by, is
wrapped to first write the child's lines to a temporary directory, merged in
here.  Started subprocesses (the demos, the ``python -m factorcat`` tests)
are not traced.

Only the abstract stubs of ``Monoid``, ``raise NotImplementedError``, may
stay unreached; a line no input can reach is deleted, not exempted.  The
exit status is 1 if any other line is left, and 0 otherwise.  Test failures
are reported but do not set it: tracing makes the run several times slower
than plain tier-1, enough to break the wall-clock budgets of the acceptance
tests, which tier-1 checks without the trace.
"""

import json
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "factorcat"

hits: dict[str, set[int]] = {}  # resolved path -> line numbers that ran
_tracers: dict[str, object] = {}  # co_filename -> its local tracer, or None outside the package


def _tracer_for(filename: str):
    path = os.path.realpath(filename)
    if Path(path).parent != PACKAGE:
        return None
    seen = hits.setdefault(path, set())

    def local(frame, event, arg):
        seen.add(frame.f_lineno)
        return local

    return local


def _trace(frame, event, arg):
    filename = frame.f_code.co_filename
    local = _tracers.get(filename, False)
    if local is False:
        local = _tracers[filename] = _tracer_for(filename)
    if local is not None:
        local(frame, event, arg)  # a call event: the first line of the code object
    return local


def executable_lines(path: Path) -> set[int]:
    """The lines that some bytecode of the file is attributed to."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _exit_leaving_hits(children: Path, real_exit):
    """os._exit that first writes this process's hits to children/<pid>.json."""

    def _exit(status):
        dump = {path: sorted(lines) for path, lines in hits.items()}
        (children / f"{os.getpid()}.json").write_text(json.dumps(dump), encoding="utf-8")
        real_exit(status)

    return _exit


def unreached(children: Path) -> list[str]:
    """The lines that neither this process nor a child that left its hits in
    children ran."""
    ran = {path: set(lines) for path, lines in hits.items()}
    for dump in children.glob("*.json"):
        for path, lines in json.loads(dump.read_text(encoding="utf-8")).items():
            ran.setdefault(path, set()).update(lines)
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - ran.get(os.path.realpath(path), set())):
            text = source[line - 1].strip()
            if text != "raise NotImplementedError":
                out.append(f"{path.relative_to(ROOT)}:{line}: {text}")
    return out


def main() -> int:
    if "factorcat" in sys.modules:
        raise SystemExit("factorcat was imported before the tracer was installed")
    import pytest

    real_exit = os._exit
    with tempfile.TemporaryDirectory(prefix="line-trace-") as children:
        os._exit = _exit_leaving_hits(Path(children), real_exit)
        threading.settrace(_trace)
        sys.settrace(_trace)
        try:
            status = pytest.main([str(ROOT / "tests"), "-q"])
        finally:
            sys.settrace(None)
            threading.settrace(None)
            os._exit = real_exit
        left = unreached(Path(children))
    if status != 0:
        print(f"pytest exited with {status} under the trace; its failures may leave lines unreached")
    print("\n".join(left) if left else "every line of src/factorcat ran")
    return int(bool(left))


if __name__ == "__main__":
    sys.exit(main())
