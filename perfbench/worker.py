"""One benchmark client: a fresh interpreter running passes of a workload.

Reads a job (JSON) on stdin and writes its result (JSON) as the last
line of stdout.  The parent, run.py, starts it with src/ on PYTHONPATH.
A pass is a fixed unit of work: every verify suite once, or every query
of the generated list once, in a closed loop.  A timer samples the
machine-speed kernel of calib.py throughout; each operation comes back
with its time, less the sampling, and the median kernel time sampled
during and around it (refs_s).  ref_s is the pass's median sample.

Job keys: seed, lists (one query list per pass, used in turn; null for
verify-cold), warmup (run the first list once, untimed),
budget_s and min_passes (keep starting passes until both are met),
trace ("off", "on" or "alternate": untraced and traced passes in turn)
and span_out (where the first traced pass writes its spans, or null).
"""

from __future__ import annotations

import json
import resource
import sys
from collections import Counter
from time import perf_counter

import calib

MAX_REPORTED = 5


def verify_pass(seed: int, sampler: calib.Sampler) -> dict:
    """Every registered suite once, with the default SuiteConfig."""
    from qtau import suites

    intervals, problems, checks = [], [], 0
    for name in suites.SUITES:
        start = _mark(sampler)
        try:
            report = suites.run_suite(suites.SuiteConfig(suite=name,
                                                         seed=seed))
        except Exception as exc:  # a raising suite is a failed operation
            checks += 1
            problems.append(f"{name}: {type(exc).__name__}: {exc}")
        else:
            checks += len(report.checks)
            problems += [f"{name}/{c.name}: {c.detail}"
                         for c in report.checks if not c.passed]
        intervals.append(start + _mark(sampler))
    return dict(_timings(intervals, sampler), suites=list(suites.SUITES),
                ops=checks, failed=len(problems), errors={},
                mismatches=problems[:MAX_REPORTED],
                n_mismatches=len(problems))


def _mark(sampler: calib.Sampler):
    return perf_counter(), sampler.spent


def _timings(intervals, sampler: calib.Sampler) -> dict:
    """Operation times less the sampling in them, and their kernel times."""
    return {"latencies_s": [(end - start) - (spent_end - spent_start)
                            for start, spent_start, end, spent_end
                            in intervals],
            "refs_s": [sampler.around(start, end)
                       for start, _, end, _ in intervals],
            "ref_s": sampler.reset()}


def query_pass(queries, sampler: calib.Sampler) -> dict:
    import routes

    intervals, errors, mismatches = [], Counter(), []
    failed = n_mismatches = 0
    for query in queries:
        start = _mark(sampler)
        values, errs = routes.run_query(query)
        intervals.append(start + _mark(sampler))
        if errs:
            failed += 1
            for route, exc in errs.items():
                errors[f"{query['kind']}.{route}:{exc}"] += 1
        why = routes.disagreement(query, values)
        if why is not None:
            n_mismatches += 1
            if len(mismatches) < MAX_REPORTED:
                mismatches.append(f"{why} for {json.dumps(query)}")
    return dict(_timings(intervals, sampler), ops=len(queries), failed=failed,
                errors=dict(errors), mismatches=mismatches,
                n_mismatches=n_mismatches)


def traced(run, span_out):
    import spans

    rec = spans.Recorder()
    before = spans.cache_snapshot()
    patches = spans.install(rec)
    try:
        result = run()
    finally:
        spans.uninstall(patches)
    result["caches"] = spans.cache_stats(before, spans.cache_snapshot())
    result.update(spans.summarize(rec.spans))
    if span_out:
        rec.write(span_out)
    return result


def run_job(job: dict, sampler: calib.Sampler) -> dict:
    lists = job["lists"]
    warmup, offset = None, 0
    if job["warmup"]:
        result = query_pass(lists[0], sampler)
        warmup = {k: result[k] for k in ("latencies_s", "refs_s")}
        offset = 1

    def one_pass():
        if lists is None:
            return verify_pass(job["seed"], sampler)
        index = offset + len(passes) % (len(lists) - offset)
        return query_pass(lists[index], sampler)

    passes, span_out = [], job["span_out"]
    start = perf_counter()
    while (perf_counter() - start < job["budget_s"]
           or len(passes) < job["min_passes"]):
        on = (job["trace"] == "on"
              or (job["trace"] == "alternate" and len(passes) % 2 == 1))
        result = traced(one_pass, span_out) if on else one_pass()
        if on:
            span_out = None
        result["traced"] = on
        passes.append(result)
    return {"warmup": warmup, "passes": passes}


def main() -> int:
    job = json.load(sys.stdin)
    import qtau.cli  # noqa: F401  (paid before, not inside, the passes)
    with calib.Sampler() as sampler:
        result = run_job(job, sampler)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
