#!/usr/bin/env python3
"""The qtau benchmark: three seeded workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload query-warm --seed 1 --seconds 30
    python3 perfbench/run.py --workload all --seed 1 --trace 1

Workloads: verify-cold, query-warm, oracle-fresh-q (see README.md).
With --trace 0 the last stdout line carries every end_to_end metric of
BENCHMARK.json, with --trace 1 every per_layer metric; the lines before
it are a readable summary.  Every time is scaled to the reference
machine speed of calib.py.  The run exits 1 when a verify check fails or
two routes that both returned a value disagree, and 2 when the checkout
has no qtau sources.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import gen  # noqa: E402
from spans import LAYERS  # noqa: E402

WORKLOADS = ("verify-cold", "query-warm", "oracle-fresh-q")
# verify-cold and oracle-fresh-q must start cold, so every pass gets a
# fresh interpreter; query-warm keeps one interpreter across passes
FRESH = ("verify-cold", "oracle-fresh-q")
MIN_PASSES = 2
# more input lists than a run at today's speed gets through; later
# passes reuse them in turn
LISTS = {"query-warm": 13, "oracle-fresh-q": 40}
IMPORT_PROBES = 7
IMPORTTIME_PROBES = 3
CHILD_TIMEOUT_S = 150
# after the import, a fresh interpreter samples the speed kernel
PROBE_TAIL = f"import sys; sys.path.insert(0, {str(HERE)!r}); import calib"
PROBE = ("import time; t = time.perf_counter(); import qtau.cli; "
         f"t = time.perf_counter() - t; {PROBE_TAIL}; "
         "print(t, calib.sample(5))")
IMPORTTIME = f"import qtau.cli; {PROBE_TAIL}; print(calib.sample(5))"
OUT_DIR = ROOT / ".bench_out"


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    paths = [str(ROOT / "src")]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def _python(args, stdin: str = "") -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], input=stdin,
                          capture_output=True, text=True, env=_env(),
                          cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited {proc.returncode}:\n"
                         + proc.stderr[-3000:])
    return proc


def _worker(job: dict) -> dict:
    out = _python([str(HERE / "worker.py")], json.dumps(job)).stdout
    return json.loads(out.strip().splitlines()[-1])


def scale(ref_s: float) -> float:
    """Factor taking a time measured at kernel time ref_s to reference speed."""
    return calib.REFERENCE_S / ref_s


def import_seconds() -> float:
    """Median scaled time of `import qtau.cli` over fresh interpreters."""
    samples = []
    for _ in range(IMPORT_PROBES):
        took, ref = map(float, _python(["-c", PROBE]).stdout.split())
        samples.append(took * scale(ref))
    return statistics.median(samples)


def parse_importtime(text: str):
    """(qtau without numpy, numpy) in ms from one `-X importtime` log."""
    qtau_us = numpy_us = 0
    for line in text.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:  # the header line
            continue
        name = parts[2].strip()
        top_level = len(parts[2]) - len(parts[2].lstrip(" ")) == 1
        if top_level and (name == "qtau" or name.startswith("qtau.")):
            qtau_us += cumulative
        if name == "numpy" and not numpy_us:
            numpy_us = cumulative
    return (qtau_us - numpy_us) / 1000, numpy_us / 1000


def import_breakdown():
    qtau_ms, numpy_ms = [], []
    for _ in range(IMPORTTIME_PROBES):
        proc = _python(["-X", "importtime", "-c", IMPORTTIME])
        factor = scale(float(proc.stdout))
        own, numpy = parse_importtime(proc.stderr)
        qtau_ms.append(own * factor)
        numpy_ms.append(numpy * factor)
    return statistics.median(qtau_ms), statistics.median(numpy_ms)


def run_passes(workload: str, seed: int, seconds: int, trace: bool):
    """Generate the inputs and drive the timed passes; return both parts."""
    t0 = perf_counter()
    lists = (None if workload == "verify-cold"
             else gen.GENERATORS[workload](seed, LISTS[workload]))
    gen_s = (perf_counter() - t0) * scale(calib.sample())
    span_out = None
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        span_out = str(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")
    job = {"seed": seed}
    children = []
    if workload in FRESH:
        start = perf_counter()
        while perf_counter() - start < seconds or len(children) < MIN_PASSES:
            on = trace and len(children) % 2 == 1
            children.append(_worker(dict(
                job, warmup=False, budget_s=0, min_passes=1,
                lists=lists and [lists[len(children) % len(lists)]],
                trace="on" if on else "off",
                span_out=span_out if on and len(children) == 1 else None)))
    else:
        children.append(_worker(dict(
            job, lists=lists, warmup=True, budget_s=seconds,
            min_passes=MIN_PASSES,
            trace="alternate" if trace else "off", span_out=span_out)))
    return gen_s, children


def scaled_times(record) -> list:
    """Each operation's time, taken to reference speed by its own sample."""
    return [t * scale(k) for t, k in zip(record["latencies_s"],
                                         record["refs_s"])]


def scaled(passes):
    """The passes with every time taken to reference speed."""
    out = []
    for p in passes:
        latencies = scaled_times(p)
        q = dict(p, latencies_s=latencies, wall_s=sum(latencies))
        if "suites" in p:
            q["suite_s"] = dict(zip(p["suites"], latencies))
        if "self_s" in p:
            f = scale(p["ref_s"])
            q["self_s"] = {k: v * f for k, v in p["self_s"].items()}
        out.append(q)
    return out


def end_to_end(plain, children, setup_s: float) -> dict:
    walls = [p["wall_s"] for p in plain]
    if "suites" in plain[0]:
        # each suite's median is one sample: percentiles over every
        # suite run would land on the fastest or slowest run of a suite
        latencies = [statistics.median(p["suite_s"][name] for p in plain)
                     for name in plain[0]["suites"]]
    else:
        latencies = [x for p in plain for x in p["latencies_s"]]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "ops_per_s": statistics.median(p["ops"] / p["wall_s"] for p in plain),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_p90_ms": 1000 * statistics.quantiles(latencies, n=10)[-1],
        "peak_rss_mb": statistics.median(
            c["peak_rss_kb"] for c in children) / 1024,
    }


def _matching(table: dict, prefix: str) -> float:
    """Total over span names equal to prefix or naming one of its modes."""
    return sum(v for k, v in table.items()
               if k == prefix or k.startswith(prefix + "."))


def layer_value(name: str, plain, traced, imports) -> float:
    def med(values):
        return statistics.median(values) if values else 0.0

    prefix, _, field = name.rpartition(".")
    if name == "trace.overhead_frac":
        return (med([p["wall_s"] for p in traced])
                / med([p["wall_s"] for p in plain]) - 1)
    if prefix == "import":
        return imports[0] if field == "qtau_ms" else imports[1]
    if prefix.startswith("suites."):
        suite = prefix[len("suites."):]
        return med([p.get("suite_s", {}).get(suite, 0.0) for p in plain])
    # counts come from the first traced pass, whose inputs depend on the
    # seed alone, so they repeat exactly however many passes a run fits
    if field in ("hit_rate", "currsize"):
        return traced[0]["caches"][prefix][field]
    if field == "calls":
        return _matching(traced[0]["calls"], prefix)
    if field == "self_s":
        if prefix in LAYERS:
            return med([p["self_s"].get(prefix, 0.0) for p in traced])
        return med([_matching(p["self_s"], prefix) for p in traced])
    raise BenchError(f"no rule measures per-layer metric {name!r}")


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 spec: dict) -> dict:
    if trace:
        imports = import_breakdown()
    else:
        import_s = import_seconds()
    gen_s, children = run_passes(workload, seed, seconds, trace)
    passes = scaled([p for c in children for p in c["passes"]])
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if trace:
        values = {m["name"]: layer_value(m["name"], plain, traced, imports)
                  for m in spec["per_layer"]}
        declared = spec["per_layer"]
    else:
        setup_s = import_s + gen_s + sum(
            sum(scaled_times(c["warmup"])) for c in children if c["warmup"])
        values = end_to_end(plain, children, setup_s)
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    n_mismatches = sum(p["n_mismatches"] for p in passes)
    errors = Counter()
    for p in passes:
        errors.update(p["errors"])

    print(f"{workload}: seed {seed}, {len(passes)} passes "
          f"({len(traced)} traced), {attempted} operations, {failed} failed")
    for name, metric in metrics.items():
        print(f"  {name:<46} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'fail_frac':<46} {failed / attempted:>14.6g} "
          "failed/attempted")
    for what, count in sorted(errors.items()):
        print(f"  raised: {what} x{count}")
    for p in passes:
        for line in p["mismatches"]:
            print(f"  MISMATCH: {line}")
    return {"correct": n_mismatches == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "qtau" / "__init__.py").is_file():
        print(f"error: no qtau sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        _python(["-c", "import qtau.cli"])  # compiles the bytecode once
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: run_workload(w, args.seed, args.seconds,
                                   bool(args.trace), spec) for w in names}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
