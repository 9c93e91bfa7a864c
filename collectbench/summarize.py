"""Summarize collectbench results files: per workload and metric, the median
and quartiles over every untraced run in a directory.

    python3 collectbench/summarize.py collectbench/results > summary.json

Quartiles are Python's statistics.quantiles(values, n=4); "spread" is the
distance between the first and third quartile as a share of the median.
"""

import json
import pathlib
import statistics
import sys


def main(directory: str) -> None:
    runs = {}
    provenance = {}
    for path in sorted(pathlib.Path(directory).glob("*-trace0.json")):
        result = json.loads(path.read_text())
        workload = result["workload"]
        prov = result["provenance"]
        provenance.setdefault(workload, {k: prov[k] for k in ("nproc", "cpu_model", "git_revision", "rustc", "seconds")})
        provenance[workload].setdefault("seeds", []).append(int(prov["seed"]))
        for group in ("metrics", "extra"):
            for name, m in result[group].items():
                if m["value"] is not None:
                    runs.setdefault(workload, {}).setdefault(name, (m["unit"], []))[1].append(m["value"])
    summary = {}
    for workload, metrics in sorted(runs.items()):
        rows = {}
        for name, (unit, values) in sorted(metrics.items()):
            med = statistics.median(values)
            row = {"unit": unit, "runs": len(values), "median": med}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                row.update({"q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None})
            rows[name] = row
        summary[workload] = {"provenance": provenance[workload], "metrics": rows}
    json.dump(summary, sys.stdout, indent=2)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "collectbench/results")
