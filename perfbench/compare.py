#!/usr/bin/env python3
"""Compare two sets of benchmark results written with `run.py --out`.

    python3 perfbench/compare.py --base a1.json a2.json ... --new b1.json b2.json ...

Every file must come from the same workload and trace mode, and carry the
same host stamp: SIMD arm detected and dispatched, core count, CPU model,
and a same-run `blas::gemm` peak within 10% of the others. Results with
different stamps are refused (exit code 2) rather than printed as a delta:
a GF/s figure from another host or dispatch arm is not comparable.
Otherwise each metric is printed as the median of each side, the delta,
and, for GF/s metrics, the delta of the peak-normalised rate.
"""

import argparse
import json
import statistics
import sys

IDENTITY = ("simd_detected", "simd_arm", "nproc", "cpu")
PEAK_TOLERANCE = 0.10


def load(path):
    with open(path) as f:
        return json.load(f)


def refuse(msg):
    print(f"compare: refused: {msg}", file=sys.stderr)
    sys.exit(2)


def check_comparable(docs):
    """Return the refusal reason for a list of (path, result), or None."""
    first_path, first = docs[0]
    for path, doc in docs[1:]:
        for key in ("workload", "trace"):
            if doc[key] != first[key]:
                return f"{key} differs: {first_path} has {first[key]!r}, {path} has {doc[key]!r}"
        for key in IDENTITY:
            if doc["stamp"][key] != first["stamp"][key]:
                return (f"host stamp {key} differs: {first_path} has {first['stamp'][key]!r}, "
                        f"{path} has {doc['stamp'][key]!r}")
    peaks = [doc["stamp"]["gemm_peak_gflops"] for _, doc in docs]
    lo, hi = min(peaks), max(peaks)
    if hi > lo * (1 + PEAK_TOLERANCE):
        return f"gemm peak drifted from {lo:.2f} to {hi:.2f} GF/s (more than {PEAK_TOLERANCE:.0%})"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args()
    base = [(p, load(p)) for p in args.base]
    new = [(p, load(p)) for p in args.new]
    reason = check_comparable(base + new)
    if reason:
        refuse(reason)

    def side(docs):
        peak = statistics.median(d["stamp"]["gemm_peak_gflops"] for _, d in docs)
        names = docs[0][1]["result"]["metrics"]
        return peak, {n: statistics.median(d["result"]["metrics"][n]["value"] for _, d in docs)
                      for n in names}

    (pa, ma), (pb, mb) = side(base), side(new)
    units = base[0][1]["result"]["metrics"]
    print(f"{base[0][1]['workload']} trace={base[0][1]['trace']}: "
          f"{len(base)} base vs {len(new)} new runs; gemm peak {pa:.2f} vs {pb:.2f} GF/s")
    print(f"  {'metric':<32} {'base':>14} {'new':>14} {'delta':>9} {'vs peak':>9}")
    for name, a in ma.items():
        b = mb.get(name)
        if b is None:
            print(f"  {name:<32} {a:>14.6g} {'missing':>14}")
            continue
        delta = f"{(b - a) / a:+.1%}" if a else "n/a"
        unit = units[name]["unit"]
        norm = f"{(b / pb) / (a / pa) - 1:+.1%}" if unit == "GF/s" and a else ""
        print(f"  {name:<32} {a:>14.6g} {b:>14.6g} {delta:>9} {norm:>9}")
    fails = [d["result"]["failed"] for _, d in base + new]
    if any(fails):
        print(f"  note: failed operations per run: {fails}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
