"""The benchmark's request streams give the recorded CLI outputs.

``perfbench/workloads.py`` is loaded by path, like the tracer in
``test_perfbench_layers.py``.  Two ``triangles`` rounds at seeds 1, 2
and 3 and one ``verify`` round at seed 1 run through ``cli.main`` in
process; one SHA-256 over their exit codes and stdout must equal the
digest recorded before the root-valued coefficients went in.  Print the
current digest with

    PYTHONPATH=src python tests/test_perfbench_outputs.py
"""

import hashlib
import importlib.util
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from covercat import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

STREAMS = (("triangles", 1, 2), ("triangles", 2, 2), ("triangles", 3, 2),
           ("verify", 1, 1))

RECORDED = "b9d1db4c01418d5c9343867be0be8c2fcb4e400d31b7d89dcb8d4fcd64616b54"


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", WORKLOADS
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def requests():
    workloads = load_workloads()
    for name, seed, rounds in STREAMS:
        stream = workloads[name].rounds(random.Random(seed))
        for _ in range(rounds):
            yield from next(stream)


def run_request(request):
    saved = sys.stdin
    sys.stdin = io.StringIO(request["stdin"])
    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(list(request["argv"]))
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def outputs_digest():
    h = hashlib.sha256()
    for request in requests():
        code, out = run_request(request)
        h.update(json.dumps([code, out]).encode() + b"\n")
    return h.hexdigest()


def test_benchmark_outputs_are_pinned():
    assert outputs_digest() == RECORDED


if __name__ == "__main__":
    print(outputs_digest())
