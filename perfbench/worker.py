"""Benchmark worker: serves CLI requests in process, one at a time.

Started by ``run.py`` as ``python3 perfbench/worker.py [--trace SPANS]``.
It imports ``covercat.cli`` from the ``src`` directory next to this
one, warms up, and prints ``{"ready": true}``.  Then, for each JSON line
``{"argv": [...], "stdin": "..."}`` read from its standard input, it
calls ``covercat.cli.main(argv)`` with stdin, stdout and stderr
redirected and replies with one JSON line holding the exit code, the
time spent in ``main``, the captured output and any exception that
escaped ``main``.  An empty line ends the loop; the final reply holds
the peak RSS and, when tracing, the per-layer summary.
"""

from __future__ import annotations

import importlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter


def serve(main, request: dict) -> dict:
    saved = sys.stdin, sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(request.get("stdin", ""))
    sys.stdout, sys.stderr = out, err
    code, exc = None, None
    t0 = perf_counter()
    try:
        code = main(request["argv"])
    except Exception as e:  # an escape is a failed request, not a crash
        exc = f"{type(e).__name__}: {e}"
    finally:
        dt = perf_counter() - t0
        sys.stdin, sys.stdout, sys.stderr = saved
    return {
        "code": code,
        "seconds": dt,
        "out": out.getvalue(),
        "err": err.getvalue()[-2000:],
        "exc": exc,
    }


def main(argv: list[str]) -> int:
    spans_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    channel_in, channel_out = sys.stdin, sys.stdout
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    cli = importlib.import_module("covercat.cli")
    importlib.import_module("covercat.classify").classify(2)  # warm-up
    tracer = None
    if spans_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    def reply(obj: dict) -> None:
        channel_out.write(json.dumps(obj) + "\n")
        channel_out.flush()

    reply({"ready": True})
    for rid, line in enumerate(channel_in):
        if not line.strip():
            break
        if tracer is not None:
            tracer.request_id = rid
        reply(serve(cli.main, json.loads(line)))
    final = {"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        final["trace"] = tracer.summary()
        tracer.write_spans(spans_path)
    reply(final)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
