"""Benchmark of loraq: one workload per process.

    python3 perfbench/run.py --workload quant-int --seed 0 --seconds 25 --trace 0

Workloads and metrics are listed in BENCHMARK.json and described in
perfbench/README.md.  The report goes to stdout; its last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-module metrics of a
traced run with ``--trace 1``.  The exit status is non-zero when any check
fails, or when loraq's sources are not next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _pin_threads(blas_threads: int) -> None:
    """One loraq worker and a fixed BLAS pool; must run before numpy loads."""
    os.environ.pop("LORAQ_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_threads)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "loraq" / "__init__.py").is_file():
        print(f"error: no loraq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from lqbench import env

    _pin_threads(min(2, env.nproc()))
    t0 = time.perf_counter()
    from lqbench import workloads  # imports numpy and loraq
    from lqbench.stats import Tally

    import_s = time.perf_counter() - t0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    environment = env.environment()
    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("environment " + json.dumps(environment, sort_keys=True))

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=ROOT / ".bench_work"))
    tally = Tally()
    try:
        outcome = workloads.run(
            wl, args.seed, args.seconds, bool(args.trace), workdir, tally,
            reference=reference,
            spans_path=out_dir / f"spans-{wl.name}-seed{args.seed}.json",
            import_s=import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    _check_fingerprint(wl.name, args.seed, outcome.fingerprint,
                       env.fingerprint_platform(environment), reference, tally)
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": outcome.metrics[m["name"]], "unit": m["unit"]}
               for m in spec[kind]}
    for line in outcome.lines:
        print(line)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"error_rate {tally.error_rate:.6g} (failed {tally.failed} of "
          f"{tally.attempted} operations and checks)")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if tally.failed == 0 else 1


def _check_fingerprint(name, seed, digest, platform, reference, tally) -> None:
    """Compare with the reference bytes, which hold for one seed on one platform."""
    expected = reference["fingerprints"].get(name)
    comparable = (seed == reference["seed"] and expected is not None
                  and platform == reference["platform"])
    if comparable:
        tally.record(digest == expected,
                     f"{name}: bundle sha256 {digest} differs from the reference")
        verdict = "matches the reference" if digest == expected else "DIFFERS"
    else:
        verdict = "no reference for this seed and platform"
    print(f"fingerprint sha256:{digest} ({verdict})")


if __name__ == "__main__":
    sys.exit(main())
