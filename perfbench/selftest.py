"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that the outside-in wrapping reaches every namespace that binds
a wrapped function (``cli`` imports several by name) and restores them,
then makes one short traced run per workload and requires it to be
correct, with at least one call in every layer that ``run.py``'s
``EXPECTED_LAYERS`` assigns to that workload.  Exits with 1 on failure.
"""

from __future__ import annotations

import importlib
import sys
import tempfile
from pathlib import Path

import run
from tracer import LAYERS, Tracer

# names ``covercat.cli`` imports from other modules and calls directly
CLI_IMPORTS = {
    "triangle_from": "frobenius.triangle_from",
    "hom_mf": "frobenius.hom_mf",
    "make_mf": "frobenius.make_mf",
    "classify": "classify.classify",
    "enumerate_pairs": "classify.enumerate_pairs",
    "normalize_pair": "normal_forms.normalize_pair",
    "is_indecomposable": "normal_forms.is_indecomposable",
    "natural_iso": "cn.natural_iso",
}


def check_wrapping() -> list[str]:
    sys.path.insert(0, str(run.ROOT / "src"))
    cli = importlib.import_module("covercat.cli")
    originals = {name: getattr(cli, name) for name in CLI_IMPORTS}
    tracer = Tracer()
    tracer.install()
    errors = []
    try:
        for name, stem in CLI_IMPORTS.items():
            bound = getattr(getattr(cli, name), "__trace_stem__", None)
            if bound != stem:
                errors.append(f"cli.{name} is not wrapped as {stem}")
        for _, _, _, stem in LAYERS:
            if tracer.bindings(stem) < 1:
                errors.append(f"{stem} is bound nowhere")
    finally:
        tracer.uninstall()
    for name, original in originals.items():
        if getattr(cli, name) is not original:
            errors.append(f"cli.{name} was not restored")
    return errors


def check_runs(seconds: int) -> list[str]:
    run.METRICS.update(run.load_metrics())
    errors = []
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        for name in run.WORKLOADS:
            try:
                rec = run.run_one(name, 0, seconds, True, Path(tmp))
            finally:
                run.Worker.kill_all()
            if rec["failures"]:
                errors.append(f"{name}: {rec['failures'][0]}")
            for layer in rec["layers_without_calls"]:
                errors.append(f"{name}: no calls recorded in {layer}")
    return errors


def main() -> int:
    errors = check_wrapping() + check_runs(seconds=2)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
