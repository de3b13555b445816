"""treecut benchmark: one seeded workload per run, every metric by name.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload decide-large --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads (see ``inputs.py`` for the exact slots and ``BENCHMARK.json`` for
why each was chosen): ``decide-large``, ``optimize-exact``, ``kmax-wide``,
``pipeline-cli``.

Each run generates its inputs from ``--seed`` (outside every timing), then
starts the workload in fresh worker processes (``worker.py``): several
set-up-only processes and one that also runs the correctness gate and the
timed rounds.  ``TREECUT_THREADS`` is removed from their environment, so
the CLI runs with its default single thread.

``--trace 0`` prints the end-to-end metrics.  Times are taken at a fixed
reference machine speed (see the calibration kernel in ``worker.py``); the
raw wall-clock figures are printed next to them.  Every op runs in each of
the timed rounds, and its latency is the least of its times.

* ``setup_s``: median over the worker processes of the time from before
  ``import treecut`` to the first operation being ready (imports, building
  every tree the workload holds, ``_fastlane.warm_up()``).
* ``ops_per_s``: correct operations per second of operation time (the
  number of ops in the round over the sum of their latencies).
* ``op_p50_s``: median latency of one operation.
* ``op_p90_s`` (printed with its sample count, not in the result line: no
  workload runs the >= 100 operations that leave ten samples beyond it).
* ``peak_rss_mb``: peak resident memory of the timed worker process.
* ``fail_ratio`` (printed, and carried by ``failed``/``attempted`` in the
  result line): failed over attempted operations, gate included.

``--trace 1`` re-runs one round untraced and one traced and prints the
per-layer metrics of ``tracing.py``; the spans go to ``perfbench/out/``.
The program runs on one thread with no queues between layers, so no layer
waits on another and there is no waiting metric.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any failed check prints
``FAIL`` lines on stderr and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

# set-up-only worker processes per run, besides the timed worker
SETUP_PROBES = 2
WORKER_TIMEOUT_S = 150


def _worker(args, env, timeout):
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          stdout=subprocess.PIPE, env=env, timeout=timeout,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {args[:2]} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _versions() -> dict:
    import numpy
    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "numba": numba_version}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple:
    """Returns (result line dict, human-readable lines)."""
    data = inputs.WORKLOADS[name](seed)
    work = OUT / f"work-{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for fname, (fmt, graph) in data.get("files", {}).items():
            path = work / f"{fname}.{fmt}"
            if fmt == "csv":
                path.write_text(inputs.graph_csv(graph))
            else:
                path.write_text(json.dumps(inputs.graph_json(graph)))
        pickle_path = work / "inputs.pickle"
        with open(pickle_path, "wb") as fh:
            pickle.dump(data, fh, protocol=pickle.HIGHEST_PROTOCOL)
        del data

        env = dict(os.environ)
        env.pop("TREECUT_THREADS", None)
        base = ["--workload", name, "--inputs", str(pickle_path)]
        setups = []
        if not trace:
            for _ in range(SETUP_PROBES):
                setups.append(_worker(base + ["--setup-only"], env, 60))
        spans = OUT / f"spans-{name}-seed{seed}.json"
        res = _worker(base + ["--seconds", str(seconds), "--trace", str(trace),
                              "--spans", str(spans)], env, WORKER_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tag = {"workload": name, "seed": seed, "trace": trace,
           "fastlane_available": res["fastlane_available"],
           "fastlane_engaged_ratio": res["engaged_ratio"],
           **_versions(), "nproc": os.cpu_count(),
           "TREECUT_THREADS": None, "rounds": res["rounds"]}
    lines = [f"tag {json.dumps(tag)}", f"answer_digest {name} sha256:{res['digest']}"]
    if trace:
        metrics = res["per_layer"]
        lines.append(f"spans {spans.relative_to(ROOT)}")
        lines.append("note single thread, no queues: no layer waits on another, "
                     "so there is no waiting metric")
    else:
        setups.append(res)
        ops = res["ops"]
        lat = res["metrics"]
        metrics = {
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
            "ops_per_s": {"value": lat["ops_per_s"], "unit": "1/s"},
            "op_p50_s": {"value": lat["op_p50_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        raw = {"setup_s": statistics.median(s["setup_raw_s"] for s in setups), **res["raw"]}
        lines.append("raw wall-clock " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
        lines.append(f"samples ops={ops} rounds={res['rounds']} setups={len(setups)}; "
                     f"gate {res['gate_s']:.2f} s, timed phase {res['timed_s']:.2f} s")
    fail_ratio = res["failed"] / res["attempted"] if res["attempted"] else 0.0
    for key, m in {**metrics, "fail_ratio": {"value": fail_ratio, "unit": "ratio"}}.items():
        lines.append(f"metric {name} {key} {m['value']} {m['unit']}")
    if not trace:
        # printed, not in the result line: a p90 needs >= 100 ops to have
        # ten samples beyond it, and no workload's round is that long
        lines.append(f"metric {name} op_p90_s {lat['op_p90_s']} s "
                     f"({ops - int(0.9 * ops)} of {ops} samples beyond it)")
    line = {"correct": res["failed"] == 0 and res["attempted"] > 0,
            "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}
    return line, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*inputs.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "treecut" / "__init__.py").is_file():
        print(f"treecut sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(inputs.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        line, lines = run_workload(name, args.seed, args.seconds, args.trace)
        print("\n".join(lines), flush=True)
        results.append((name, line))
    if len(results) == 1:
        line = results[0][1]
    else:
        line = {"correct": all(r["correct"] for _n, r in results),
                "attempted": sum(r["attempted"] for _n, r in results),
                "failed": sum(r["failed"] for _n, r in results),
                "metrics": {f"{n}.{k}": v for n, r in results
                            for k, v in r["metrics"].items()}}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
