"""covercat benchmark: closed-loop CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload triangles --seed 1 --seconds 20 --trace 0

``--workload`` is ``triangles``, ``verify``, ``classify`` (not in
``BENCHMARK.json``; see the README) or ``all``.
With ``--trace 0`` a run reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it reports the per-layer metrics
from a run with every layer wrapped (see ``tracer.py``).  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller record (machine,
seeds, tail percentile, output digest, failures) is written to
``--out``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7  # workers started per run; setup_s is their median
HARD_LIMIT_S = 170  # a run never outlives this, whatever hangs

# Layers each workload must reach: the traced run is marked incorrect
# when any of these records no calls (the wrapping missed a binding).
EXPECTED_LAYERS = {
    "triangles": [
        "scalars.cyclotomic_reduce.calls", "scalars.Cyclotomic.mul.calls",
        "scalars.RootOfUnity.mul.calls", "frobenius.cover_compose.calls",
        "frobenius.cover_morphism.calls", "frobenius.EndMatrix.compose.calls",
        "frobenius._split_matrix_factorization.calls",
        "frobenius._elementary.calls", "frobenius.hom_mf.calls",
        "frobenius.universal_sequence.calls", "frobenius.triangle_from.calls",
        "frobenius.universal_virtual_triangle.calls",
        "classify.classify.calls", "classify.strongly_isomorphic.calls",
        "cn.conjugate_pair.calls", "cli.main.self_s", "cli.output_bytes",
    ],
    "classify": [
        "classify.strongly_isomorphic.calls", "cn.conjugate_pair.calls",
        "classify.enumerate_pairs.pairs", "cn.commutes.calls",
        "cn.natural_iso.calls", "cn.continuity_factor.calls",
    ],
    "verify": [
        "scalars.cyclotomic_reduce.calls", "scalars.Cyclotomic.mul.calls",
        "scalars.RootOfUnity.mul.calls", "frobenius.EndMatrix.compose.calls",
        "frobenius.hom_mf.calls", "frobenius.universal_sequence.calls",
        "frobenius.triangle_from.calls", "frobenius.rotate_triangle.calls",
        "frobenius.verify_axiom_samples.calls",
        "classify.enumerate_pairs.pairs", "cn.commutes.calls",
        "cn.natural_iso.calls", "cn.continuity_factor.calls",
        "normal_forms.normalize_pair.calls",
        "normal_forms.is_indecomposable.calls",
        "normal_forms.enumerate_centralizer.calls",
    ],
}


class Timeout(Exception):
    pass


class Worker:
    """One worker process; ``setup_s`` runs from spawn to its ready line.

    Every worker started is kept in ``LIVE`` until it has been stopped,
    so a run that fails half way can kill what is left.
    """

    LIVE: list["Worker"] = []

    def __init__(self, spans: Path | None = None):
        cmd = [sys.executable, str(HERE / "worker.py")]
        if spans is not None:
            cmd += ["--trace", str(spans)]
        t0 = perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT,
        )
        self.LIVE.append(self)
        self._read()
        self.setup_s = perf_counter() - t0

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("worker exited without replying")
        return json.loads(line)

    def request(self, req: dict) -> dict:
        self.proc.stdin.write(
            json.dumps({"argv": req["argv"], "stdin": req["stdin"]}) + "\n"
        )
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> dict:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        final = self._read()
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()
        self.LIVE.remove(self)
        return final

    @classmethod
    def kill_all(cls) -> None:
        for worker in cls.LIVE:
            worker.proc.kill()
            worker.proc.wait()
        cls.LIVE.clear()


class Loop:
    """A closed loop with one client: the next request waits for a reply."""

    def __init__(self, workload, seed: int, seconds: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.latencies: list[float] = []
        self.by_kind: dict[str, list[float]] = {}
        self.work = 0
        self.failures: list[str] = []
        self.output_bytes = 0
        self.wall = 0.0
        self.round_rates: list[float] = []
        self.digest = None

    def run(self, worker: Worker, rounds: int | None) -> None:
        """Serve ``rounds`` rounds, or whole rounds until the time is up."""
        stream = self.workload.rounds(random.Random(self.seed))
        t0 = perf_counter()
        for done, batch in enumerate(stream, start=1):
            digest = hashlib.sha256()
            work, r0 = self.work, perf_counter()
            for req in batch:
                reply = worker.request(req)
                self.latencies.append(reply["seconds"])
                self.by_kind.setdefault(req["kind"], []).append(
                    1000 * reply["seconds"]
                )
                self.output_bytes += len(reply["out"].encode())
                digest.update(reply["out"].encode())
                try:
                    self.work += self.workload.check(req, reply)
                except (CheckFailed, KeyError, ValueError) as exc:
                    self.failures.append(
                        f"{' '.join(req['argv'])} {req['stdin']}: {exc}"
                    )
            self.round_rates.append((self.work - work) / (perf_counter() - r0))
            if self.digest is None:
                self.digest = digest.hexdigest()
            if done == rounds or (
                rounds is None and perf_counter() - t0 >= self.seconds
            ):
                break
        self.wall = perf_counter() - t0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def throughput(self) -> float:
        """Work per wall second: the median over rounds, so that a burst
        of load from outside the run moves it less than a mean would."""
        return statistics.median(self.round_rates)


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with
    at least ten samples beyond it, or the maximum with fewer samples."""
    ordered = sorted(latencies)
    i = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered) - 1 - i


def run_untraced(workload, seed: int, seconds: int) -> dict:
    setups = []
    worker = None
    for _ in range(SETUP_PROBES):
        if worker is not None:
            worker.stop()
        worker = Worker()
        setups.append(worker.setup_s)
    loop = Loop(workload, seed, seconds)
    loop.run(worker, None)
    final = worker.stop()
    tail, pct, beyond = tail_latency(loop.latencies)
    return {
        "loop": loop,
        "metrics": {
            "latency_ms_p50": 1000 * statistics.median(loop.latencies),
            "latency_ms_tail": 1000 * tail,
            "throughput_per_s": loop.throughput(),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": final["peak_rss_kb"] / 1024,
            "success_ratio": 1 - len(loop.failures) / loop.attempted,
        },
        "extra": {
            "tail_percentile": pct,
            "tail_samples_beyond": beyond,
            "latency_samples": loop.attempted,
            "latency_ms_p50_by_kind": {
                k: statistics.median(v) for k, v in sorted(loop.by_kind.items())
            },
            "setup_samples_s": setups,
            "error_ratio": len(loop.failures) / loop.attempted,
        },
    }


def layer_metric(name: str, trace: dict):
    stem, _, stat = name.rpartition(".")
    if stem in trace["stats"] and stat in ("calls", "self_s", "pairs"):
        calls, self_s, items = trace["stats"][stem]
        return {"calls": calls, "self_s": self_s, "pairs": items}[stat]
    if name in trace["ratios"]:
        hits, base = trace["ratios"][name]
        return hits / base if base else 0.0
    raise KeyError(f"no trace data for per-layer metric {name}")


def run_traced(workload, seed: int, seconds: int, out: Path) -> dict:
    rounds = workload.trace_rounds(seconds)
    plain = Loop(workload, seed, seconds)
    worker = Worker()
    plain.run(worker, rounds)
    worker.stop()
    spans = out / f"spans-{workload.name}-seed{seed}.jsonl"
    traced = Loop(workload, seed, seconds)
    worker = Worker(spans)
    traced.run(worker, rounds)
    final = worker.stop()
    trace = final["trace"]
    values = {
        "cli.output_bytes": traced.output_bytes,
        "trace.overhead_ratio": (traced.work / traced.wall)
        / (plain.work / plain.wall),
        "trace.requests": traced.attempted,
    }
    missing = []
    for name in METRICS["per_layer"]:
        if name not in values:
            values[name] = layer_metric(name, trace)
    for name in EXPECTED_LAYERS[workload.name]:
        if not values[name] > 0:
            missing.append(name)
    return {
        "loop": traced,
        "plain": plain,
        "metrics": values,
        "extra": {
            "spans_file": str(spans),
            "spans": trace["spans"],
            "layers_without_calls": missing,
            "untraced_wall_s": plain.wall,
            "traced_wall_s": traced.wall,
        },
    }


def git_sha() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def load_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


METRICS: dict = {}


def run_one(name: str, seed: int, seconds: int, traced: bool, out: Path):
    workload = WORKLOADS[name]
    if traced:
        res = run_traced(workload, seed, seconds, out)
        wanted = METRICS["per_layer"]
    else:
        res = run_untraced(workload, seed, seconds)
        wanted = METRICS["end_to_end"]
    loop = res["loop"]
    metrics = {
        k: {"value": res["metrics"][k], "unit": unit}
        for k, unit in wanted.items()
    }
    failures = loop.failures + (
        res["plain"].failures if traced else []
    )
    attempted = loop.attempted + (res["plain"].attempted if traced else 0)
    correct = not failures and not res["extra"].get("layers_without_calls")
    record = {
        "workload": name,
        "work_unit": workload.work_unit,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "output_digest": loop.digest,
        "wall_s": loop.wall,
        "metrics": metrics,
        **res["extra"],
        "machine": {
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "git_sha": git_sha(),
        },
    }
    path = out / f"{name}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record


def print_table(rec: dict) -> None:
    print(f"# {rec['workload']} seed={rec['seed']} trace={rec['trace']} "
          f"attempted={rec['attempted']} failed={rec['failed']} "
          f"work_unit={rec['work_unit']}")
    for name, m in rec["metrics"].items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    if "error_ratio" in rec:
        print(f"  {'error_ratio':<48} {rec['error_ratio']:>14.6g} ratio")
        print(f"  tail = p{rec['tail_percentile']:.1f} of "
              f"{rec['latency_samples']} samples")
    for msg in rec["failures"][:5]:
        print(f"  FAILED {msg[:300]}", file=sys.stderr)
    for name in rec.get("layers_without_calls", []):
        print(f"  NO CALLS {name}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "results")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "covercat" / "cli.py").is_file():
        print(f"error: no covercat sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    METRICS.update(load_metrics())
    args.out.mkdir(parents=True, exist_ok=True)

    def expire(signum, frame):
        raise Timeout(f"run exceeded {HARD_LIMIT_S} s")

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    signal.signal(signal.SIGALRM, expire)
    signal.alarm(HARD_LIMIT_S * len(names))
    records = []
    try:
        for name in names:
            rec = run_one(name, args.seed, args.seconds, bool(args.trace),
                          args.out)
            print_table(rec)
            records.append(rec)
    except (Timeout, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        Worker.kill_all()
    prefix = len(records) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            (f"{r['workload']}.{k}" if prefix else k): v
            for r in records for k, v in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
