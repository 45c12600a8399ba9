"""Compare two suite reports: ``python3 compare.py A.json B.json``.

One row per (workload, end-to-end metric): both medians with their
quartiles over rounds, the ratio B / A with A as its stated base, and a
verdict that uses only the bounds fixed in ``BENCHMARK.json``:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — it is not, but the round-to-round spread of either
  side is wider than the bound, so "unchanged" cannot be claimed;
* ``ok``         — otherwise.

Exits non-zero on any ``regressed`` row or a larger ``failed_frac``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

from workloads import REPO_ROOT


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def compare(a: dict, b: dict, metrics: list[dict]) -> list[dict]:
    rows = []
    for workload in a["workloads"]:
        wa, wb = a["workloads"][workload], b["workloads"].get(workload)
        if wb is None:
            continue
        for m in metrics:
            ea, eb = wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]]
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse_by = sign * (eb["value"] - ea["value"]) / abs(ea["value"])
            qa, qb = quartiles(ea["rounds"]), quartiles(eb["rounds"])
            spread = max(
                (qa[1] - qa[0]) / abs(ea["value"]), (qb[1] - qb[0]) / abs(eb["value"])
            )
            if worse_by > m["bound"]:
                verdict = "regressed"
            elif spread > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append(
                {
                    "workload": workload,
                    "metric": m["name"],
                    "unit": m["unit"],
                    "a": ea["value"],
                    "a_quartiles": qa,
                    "b": eb["value"],
                    "b_quartiles": qb,
                    "ratio": eb["value"] / ea["value"],
                    "bound": m["bound"],
                    "verdict": verdict,
                }
            )
        fa, fb = wa["failed_frac"], wb["failed_frac"]
        rows.append(
            {
                "workload": workload,
                "metric": "failed_frac",
                "unit": "frac",
                "a": fa,
                "a_quartiles": (fa, fa),
                "b": fb,
                "b_quartiles": (fb, fb),
                "ratio": fb / fa if fa else float(fb > 0),
                "bound": 0.0,
                "verdict": "regressed" if fb > fa else "ok",
            }
        )
    return rows


def render(rows: list[dict]) -> str:
    lines = [
        f"{'workload':24s} {'metric':19s} {'A median [q1, q3]':>32s} "
        f"{'B median [q1, q3]':>32s} {'B/A (base A)':>22s} {'bound':>6s}  verdict"
    ]
    for r in rows:
        a = f"{r['a']:.5g} [{r['a_quartiles'][0]:.5g}, {r['a_quartiles'][1]:.5g}]"
        b = f"{r['b']:.5g} [{r['b_quartiles'][0]:.5g}, {r['b_quartiles'][1]:.5g}]"
        ratio = f"{r['ratio']:.4f} of {r['a']:.5g} {r['unit']}"
        lines.append(
            f"{r['workload']:24s} {r['metric']:19s} {a:>32s} {b:>32s} "
            f"{ratio:>22s} {r['bound']:6.2f}  {r['verdict']}"
        )
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    with open(argv[1]) as fa, open(argv[2]) as fb:
        rows = compare(json.load(fa), json.load(fb), metrics)
    print(render(rows))
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
