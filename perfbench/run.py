"""The repository's benchmark: four workloads, each output certified.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-corpus --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones from a separate traced pass.  Each
metric is printed by name with its unit and sample count; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every run also leaves a
record (host, CPU count and affinity, Python version, git SHA, seed,
counts, every figure) under ``.perfbench_out/runs/`` in the checkout.
``--baseline FILE`` (with ``--trace 1``) additionally writes each
workload's layer shares of self time to FILE.

Everything the run writes stays under ``.perfbench_out/`` in the
checkout; its temporary directory is removed on exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Per-layer metrics only the service workload reports; the in-process
#: workloads report the others, and each kind reads 0 for the rest.
SERVICE_LAYER_PREFIXES = ("service.", "loadgen.")
#: Layers whose combined self-time share gates a solver rewrite.
SOLVER_LAYERS = ("progression", "msa")


def load_catalog(root: str = ROOT) -> Dict[str, Any]:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _git_sha(root: str) -> Optional[str]:
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"),
                  encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(root: str) -> str:
    """sha256 over the program's Python sources (checkouts lack .git)."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for directory, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def host_record(root: str = ROOT) -> Dict[str, Any]:
    try:
        affinity: Optional[List[int]] = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": _git_sha(root),
        "source_sha256": _source_digest(root),
    }


def _workload_module(name: str):
    if name == "service-mix":
        from perfbench import service

        return service
    from perfbench import inprocess

    if name not in inprocess.SPECS:
        raise SystemExit(f"perfbench: unknown workload {name!r}")
    return inprocess


def metric_block(
    result: Dict[str, Any], catalog: Dict[str, Any], trace: bool, name: str
) -> Dict[str, Dict[str, Any]]:
    """The declared metrics of one run: value, unit and sample count."""
    if not trace:
        declared = catalog["end_to_end"]
        values = {k: v for k, (v, _) in result["metrics"].items()}
        samples = {k: n for k, (_, n) in result["metrics"].items()}
    else:
        declared = catalog["per_layer"]
        service = name == "service-mix"
        values = {
            m["name"]: 0 for m in declared
            if m["name"].startswith(SERVICE_LAYER_PREFIXES) != service
        }
        values.update(
            {k: v for k, v in result["layers"].items() if k != "shares"}
        )
        values.update(
            oracle_calls=result["deterministic"]["oracle_calls"],
            sim_s=result["deterministic"]["sim_s"],
            failed_frac=result["failed"] / result["attempted"],
        )
        samples = {k: result["attempted"] for k in values}
    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        missing = sorted(set(names) - set(values))
        extra = sorted(set(values) - set(names))
        raise RuntimeError(
            f"metrics do not match BENCHMARK.json: missing {missing}, "
            f"undeclared {extra}"
        )
    return {
        m["name"]: {
            "value": values[m["name"]],
            "unit": m["unit"],
            "samples": samples[m["name"]],
        }
        for m in declared
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, catalog, workdir: str
) -> Dict[str, Any]:
    result = _workload_module(name).run(name, seed, seconds, trace, workdir)
    result["block"] = metric_block(result, catalog, trace, name)
    return result


def _print_result(name: str, result: Dict[str, Any]) -> None:
    print(
        f"[{name}] attempted={result['attempted']} failed={result['failed']}"
        f" counts={json.dumps(result['counts'], sort_keys=True)}"
        f" phases={json.dumps(result['phases'], sort_keys=True)}"
    )
    for metric, entry in result["block"].items():
        print(
            f"  {metric:28s} {entry['value']:>14.6g} {entry['unit']:8s}"
            f" n={entry['samples']}"
        )
    print(f"  raw wall figures: {json.dumps(result['raw'], sort_keys=True)}")
    det = result["deterministic"]
    print(
        f"  deterministic: oracle_calls={det['oracle_calls']}"
        f" sim_s={det['sim_s']:.1f} rel_bytes_geo={det['rel_bytes_geo']:.6f}"
    )
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def _write_record(record: Dict[str, Any]) -> str:
    runs = os.path.join(OUT_DIR, "runs")
    os.makedirs(runs, exist_ok=True)
    path = os.path.join(
        runs,
        f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
        f"-{int(time.time() * 1000)}.json",
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return path


def baseline_entry(result: Dict[str, Any]) -> Dict[str, Any]:
    """One workload's traced figures, with each layer's self-time share."""
    shares = result["layers"].get("shares", {})
    return {
        "self_time_shares": shares,
        "progression_plus_msa_share": sum(
            shares.get(layer, 0.0) for layer in SOLVER_LAYERS
        ),
        "per_layer": {
            name: entry["value"] for name, entry in result["block"].items()
        },
        "counts": result["counts"],
    }


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", default=None,
                        help="with --trace 1: write layer shares here")
    args = parser.parse_args(argv)
    if args.baseline and not args.trace:
        parser.error("--baseline needs --trace 1")
    return args


def stop_children(timeout: float = 10.0) -> None:
    """Wait for every process this run started to end.

    Pools are shut down where they are used; this also joins anything a
    failing path left behind and stops multiprocessing's resource
    tracker, which would otherwise outlive this process for a moment.
    """
    import gc
    import multiprocessing
    from multiprocessing import resource_tracker

    gc.collect()
    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.terminate()
            child.join(timeout)
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_stop", None) is not None:
        tracker._stop()
    elif getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)
        tracker._fd = None
        os.waitpid(tracker._pid, 0)
        tracker._pid = None


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no program source under src/repro", file=sys.stderr)
        return 2
    # The script's own directory would shadow modules by bare name.
    sys.path[:] = [
        p for p in sys.path if os.path.abspath(p or ".") != HERE
    ]
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]
    )
    catalog = load_catalog()
    seconds = args.seconds if args.seconds is not None else catalog[
        "run_seconds"
    ]
    names = (
        [w["name"] for w in catalog["workloads"]]
        if args.workload == "all" else [args.workload]
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    # Worker processes and libraries put their temporary files here too.
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    host = host_record()
    results: Dict[str, Dict[str, Any]] = {}
    try:
        for name in names:
            result = run_workload(
                name, args.seed, seconds, bool(args.trace), catalog,
                os.path.join(workdir, name),
            )
            results[name] = result
            _print_result(name, result)
            _write_record({
                "workload": name,
                "seed": args.seed,
                "trace": args.trace,
                "seconds": seconds,
                "host": host,
                **{k: v for k, v in result.items() if k != "metrics"},
            })
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
    if args.baseline:
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump({
                "seed": args.seed,
                "seconds": seconds,
                "host": host,
                "workloads": {
                    name: baseline_entry(result)
                    for name, result in results.items()
                },
            }, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if len(names) == 1:
        block = results[names[0]]["block"]
    else:
        block = {
            f"{name}.{metric}": entry
            for name, result in results.items()
            for metric, entry in result["block"].items()
        }
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": {
            metric: {"value": entry["value"], "unit": entry["unit"]}
            for metric, entry in block.items()
        },
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
