"""Run one degreecalc CLI command in this fresh interpreter and time it.

    cli_probe.py REPORT_JSON CLI_ARGS...

The command's output and exit code are those of ``degreecalc`` itself.  The
report gives the time to import ``degreecalc.cli`` and the time spent in
``cli.main``.  Traced runs of the benchmark start this script to measure the
CLI layer.
"""

import sys
import time

_start = time.perf_counter()
import degreecalc.cli  # noqa: E402  (the import is what is being timed)

import_ms = 1e3 * (time.perf_counter() - _start)

import json  # noqa: E402


def main() -> int:
    report_path, cli_args = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    try:
        return degreecalc.cli.main(cli_args)
    finally:
        main_ms = 1e3 * (time.perf_counter() - start)
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump({"import_ms": import_ms, "main_ms": main_ms}, fh)


if __name__ == "__main__":
    sys.exit(main())
