"""Report the statements of ``src/degreecalc`` that no input reaches.

Run from the root of a checkout::

    python tests/reach.py

It runs the tier-1 suite (``tests/`` and ``perfbench/tests``) in this
process, then one seed-201 pass of each perfbench workload, under the
standard library's ``trace`` line counter, limited to ``src/degreecalc``.
It then prints every executable line that never ran, as ``file:line  text``
(the lines ``trace``'s ``show_missing`` marks).

This is a report of reach, not a pass/fail check: the tests that assert a
time budget fail under tracing, and their failures are expected.  CPython
removes a trace function that raises, as ``trace``'s does at the recursion
limit, so the tracer is installed again after any test that removed it; the
report names those tests, as the rest of each went uncounted.  Lines that
only run in a child process (``cli.console_main`` and the ``__main__``
guard, which the SIGPIPE test starts with ``python -m``) cannot be seen by
the tracer; they are listed apart as "subprocess only".  Standard library
only, besides pytest itself; pytest does not collect this file.
"""

from __future__ import annotations

import ast
import sys
import tempfile
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "degreecalc"
SEED = 201
_MISSING = ">>>>>> "  # how trace's show_missing marks a line that never ran


class _Rearm:
    """A pytest plugin that installs the tracer again after each test that
    removed it, and records that test's id."""

    def __init__(self) -> None:
        self.globaltrace = sys.gettrace()
        self.removed: list[str] = []

    def pytest_runtest_logfinish(self, nodeid: str) -> None:
        if sys.gettrace() is not self.globaltrace:
            self.removed.append(nodeid)
            sys.settrace(self.globaltrace)


def _run_suite_and_workloads() -> tuple[int, list[str]]:
    import pytest

    rearm = _Rearm()
    status = pytest.main(
        ["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), str(ROOT / "perfbench" / "tests")],
        plugins=[rearm],
    )
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads  # read only: perfbench's own seeded inputs

    for name in workloads.WORKLOADS:
        workload = workloads.make(name, SEED)
        items = workload.build()
        workload.start_pass()
        for item in items:
            workload.run(item)
    return int(status), rearm.removed


def _subprocess_only(source: str) -> set[int]:
    """The lines of ``console_main`` and of the ``__main__`` guard."""
    lines: set[int] = set()
    for node in ast.parse(source).body:
        if (isinstance(node, ast.FunctionDef) and node.name == "console_main") or (
            isinstance(node, ast.If) and "__main__" in ast.unparse(node.test)
        ):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    tracer = trace.Trace(count=1, trace=0)
    # trace's own filter (ignoredirs) caches its verdict by a module's base
    # name, so degreecalc/__init__.py would share that of the first other
    # __init__ it meets; pick the package's frames by their file instead.
    package = str(PACKAGE)
    tracer.globaltrace = lambda frame, event, arg: (
        tracer.localtrace if frame.f_code.co_filename.startswith(package) else None
    )
    status, removed = tracer.runfunc(_run_suite_and_workloads)

    unreached, subprocess_only = [], []
    with tempfile.TemporaryDirectory() as coverdir:
        tracer.results().write_results(show_missing=True, coverdir=coverdir)
        for path in sorted(PACKAGE.glob("*.py")):
            (cover,) = Path(coverdir).glob(f"*degreecalc.{path.stem}.cover")
            marked = cover.read_text(encoding="utf-8").splitlines()
            in_child = _subprocess_only(path.read_text(encoding="utf-8"))
            for number, line in enumerate(marked, 1):
                if line.startswith(_MISSING):
                    where = f"{path.relative_to(ROOT)}:{number}  {line[len(_MISSING):].strip()}"
                    (subprocess_only if number in in_child else unreached).append(where)

    print(f"\npytest exit status {status} (time budgets fail under tracing)")
    print(f"\n{len(removed)} tests removed the tracer (installed again after each):")
    print("\n".join(removed))
    print(f"\n{len(unreached)} lines never ran:")
    print("\n".join(unreached))
    print(f"\n{len(subprocess_only)} lines run only in a subprocess:")
    print("\n".join(subprocess_only))
    return 0


if __name__ == "__main__":
    sys.exit(main())
