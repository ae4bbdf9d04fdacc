"""Pair table of alternating benchmark runs of a parent and a change checkout.

    python3 tools/pair_table.py PARENT_DIR CHANGE_DIR --out BENCH_<n>.json

Each checkout holds the untraced run records that ``perfbench/run.py``
wrote under its ``.perfbench_out/`` (``run-<workload>-seed<n>-trace0.json``).
Records are paired by workload and seed. For every end-to-end metric that
the change's ``BENCHMARK.json`` declares, the script prints one markdown row
per workload: each side's median, the change against the parent, the
parent's interquartile range, the pairs the change won (ties count for
neither side) and whether the median is worse than the parent's by more
than the metric's bound. It lists the seeds of runs flagged
``competing_load`` or not ``correct``, each metric left out because some
run lacks it (a leg whose every operation failed has no time), and each
pair's two probe medians (the ``probe_ms`` that scales a run's legs), and
writes the same figures to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def records(checkout: Path) -> dict[tuple[str, int], dict]:
    """The untraced run records of a checkout, by (workload, seed)."""
    out = {}
    for path in sorted((checkout / ".perfbench_out").glob("run-*-trace0.json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        out[(rec["workload"], rec["seed"])] = rec
    return out


def quartiles(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Medians, the parent's IQR, pairs won and the bound test of one metric."""
    sign = 1.0 if better == "lower" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent) if len(parent) > 1 else (p_med, p_med)
    return {
        "parent_median": p_med,
        "change_median": c_med,
        "change_pct": 100.0 * (c_med / p_med - 1.0) if p_med else None,
        "parent_iqr": q3 - q1,
        "pairs_won": sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
        "pairs": len(parent),
        "worse_beyond_bound": sign * (c_med - p_med) > bound * abs(p_med),
    }


def table(parent_dir: Path, change_dir: Path) -> dict:
    spec = json.loads((change_dir / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = records(parent_dir), records(change_dir)
    out = {}
    for workload in sorted({w for w, _ in parent} & {w for w, _ in change}):
        seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
        pairs = [(parent[(workload, s)], change[(workload, s)]) for s in seeds]
        metrics, left_out = {}, []
        for m in spec["end_to_end"]:
            name = m["name"]
            if all(name in p["metrics"] and name in c["metrics"] for p, c in pairs):
                metrics[name] = {"unit": m["unit"], "bound": m["bound"],
                                 **compare([p["metrics"][name] for p, _ in pairs],
                                           [c["metrics"][name] for _, c in pairs],
                                           m["better"], m["bound"])}
            else:
                left_out.append(name)
        sides = (("parent", [p for p, _ in pairs]), ("change", [c for _, c in pairs]))
        out[workload] = {
            "seeds": seeds,
            "competing_load": {side: [s for s, rec in zip(seeds, recs) if rec["competing_load"]]
                               for side, recs in sides},
            "not_correct": {side: [s for s, rec in zip(seeds, recs) if not rec["correct"]]
                            for side, recs in sides},
            "left_out": left_out,
            "failed": {"parent": sum(p["failed"] for p, _ in pairs),
                       "change": sum(c["failed"] for _, c in pairs)},
            "probe_ms": [[statistics.median(p["probe_ms"]), statistics.median(c["probe_ms"])]
                         for p, c in pairs],
            "metrics": metrics,
        }
    return out


def markdown(result: dict) -> str:
    lines = ["| workload | metric | parent | change | parent IQR | pairs won | beyond bound |",
             "|---|---|---|---|---|---|---|"]
    notes = []
    for workload, w in result.items():
        for name, m in w["metrics"].items():
            pct = "" if m["change_pct"] is None else f" ({m['change_pct']:+.1f}%)"
            lines.append(f"| {workload} | `{name}` | {m['parent_median']:.4g} | "
                         f"{m['change_median']:.4g}{pct} | {m['parent_iqr']:.2g} | "
                         f"{m['pairs_won']}/{m['pairs']} | "
                         f"{'yes' if m['worse_beyond_bound'] else 'no'} |")
        notes.append(f"{workload}: seeds {w['seeds']}; competing_load parent "
                     f"{w['competing_load']['parent']}, change {w['competing_load']['change']}; "
                     f"not correct parent {w['not_correct']['parent']}, "
                     f"change {w['not_correct']['change']}; "
                     f"failed operations parent {w['failed']['parent']}, "
                     f"change {w['failed']['change']}")
        if w["left_out"]:
            notes.append(f"{workload}: left out, missing from some run: "
                         + ", ".join(w["left_out"]))
        notes.append(f"{workload}: probe medians (ms), parent/change by seed: " + ", ".join(
            f"{s} {p:.4g}/{c:.4g}" for s, (p, c) in zip(w["seeds"], w["probe_ms"])))
    return "\n".join(lines + [""] + notes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    result = table(args.parent, args.change)
    if not result:
        print("no workload has run records in both checkouts", file=sys.stderr)
        return 2
    print(markdown(result))
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
