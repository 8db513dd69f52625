"""Run one biharm CLI command as ``python -m biharm.cli`` would, with timing.

Usage::

    python3 perfbench/child.py META_JSON TRACE_NPZ CLI_ARGS...

Imports biharm from the checkout's ``src`` and calls ``biharm.cli.main``
in this process.  Writes META_JSON with the exit code, the duration of
``main`` and the CLOCK_MONOTONIC time at which the first
``ProblemData.from_expressions`` returned (the end of set-up).  Unless
TRACE_NPZ is ``-``, every layer is traced and the spans are written to
TRACE_NPZ when the command ends.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _time_setup(problem_cls, meta: dict) -> None:
    build = problem_cls.__dict__["from_expressions"].__func__

    def from_expressions(cls, *args, **kwargs):
        result = build(cls, *args, **kwargs)
        meta.setdefault("setup_done", time.monotonic())
        return result

    problem_cls.from_expressions = classmethod(from_expressions)


def main() -> int:
    meta_path, trace_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, str(SRC))
    import biharm
    from biharm import cli
    from biharm.problem import ProblemData

    if Path(biharm.__file__).resolve().parent != SRC / "biharm":
        print(f"biharm imported from {biharm.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    meta = {}
    tracer = None
    if trace_path != "-":
        from layers import HOOKS
        from tracer import Tracer, install

        tracer = Tracer(run_id=int(time.time_ns() % (1 << 62)))
        install(tracer, HOOKS)
    _time_setup(ProblemData, meta)

    code = 1
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        meta["main_s"] = time.perf_counter() - t0
        meta["exit_code"] = code
        if tracer is not None:
            tracer.write(trace_path)
            meta["run_id"] = tracer.run_id
            meta["counters"] = tracer.counters
        Path(meta_path).write_text(json.dumps(meta), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
