"""Output checks for the ``figures`` workload.

Seven figures have an archived rendering under ``benchmarks/results``;
each sweep's table is rendered at the archive's precision and compared
byte for byte.  The two fault figures have no archive, so their full
precision content is compared with SHA-256 digests recorded in
``expected.json`` at the commit that introduced this benchmark.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE.parent / "benchmarks" / "results"

#: experiment id -> (archive file, rendering precision)
ARCHIVED = {
    "fig9": ("fig09.txt", 2),
    "fig10": ("fig10.txt", 2),
    "fig11": ("fig11.txt", 0),
    "fig12": ("fig12.txt", 0),
    "fig13": ("fig13.txt", 0),
    "fig14": ("fig14.txt", 0),
    "ablation-concurrent": ("ablation_concurrent.txt", 0),
}
DIGESTED = ("faults-delay", "faults-ratio")
SWEEP_IDS = [*ARCHIVED, *DIGESTED]


def table_digest(table) -> str:
    """SHA-256 over the canonical JSON of a table's full content
    (floats at full precision, so any bit change shows)."""
    doc = {
        "title": table.title,
        "x_label": table.x_label,
        "x_values": list(table.x_values),
        "columns": {name: list(col) for name, col in table.columns.items()},
        "notes": list(table.notes),
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_tables(tables: dict) -> list[str]:
    """Problems found in one sweep's tables (empty when all match)."""
    problems = []
    missing = [exp_id for exp_id in SWEEP_IDS if exp_id not in tables]
    if missing:
        problems.append(f"sweep returned no table for {missing}")
    for exp_id, (name, precision) in ARCHIVED.items():
        if exp_id not in tables:
            continue
        archived = (RESULTS / name).read_text(encoding="utf-8")
        if tables[exp_id].render(precision) + "\n" != archived:
            problems.append(f"{exp_id} differs from benchmarks/results/{name}")
    digests = json.loads((HERE / "expected.json").read_text())["digests"]
    for exp_id in DIGESTED:
        if exp_id in tables and table_digest(tables[exp_id]) != digests[exp_id]:
            problems.append(f"{exp_id} differs from its recorded digest")
    return problems
