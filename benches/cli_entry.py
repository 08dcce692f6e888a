"""Child process of a traced cli_cold op.

Usage: python cli_entry.py SPAWN_TIME SPANS_PATH CLI_ARGS...

SPAWN_TIME is the parent's ``time.perf_counter()`` just before it started
this process (on Linux both processes read the same monotonic clock). The
script times interpreter start and ``import groupfx.cli``, runs
``groupfx.cli.main(CLI_ARGS)`` under the tracer, writes the spans and
timings to SPANS_PATH as JSON and exits with the CLI's exit code.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402


def main() -> int:
    spawned, spans_path, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    t0 = time.perf_counter()
    import groupfx.cli
    import_ms = (time.perf_counter() - t0) * 1e3

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = groupfx.cli.main(argv)
    finally:
        tracer.uninstall()
    meta = {
        "interpreter_ms": (STARTED - spawned) * 1e3,
        "import_ms": import_ms,
        "apc_warnings": sum("APC condition" in str(w.message) for w in caught),
    }
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
