#!/usr/bin/env python3
"""Bench-regression guard for BENCH_recovery.json (the chaos_recovery
harness). CI fails when failure recovery regresses:

* any schedule reports an invariant violation (lost or half-applied acked
  commit, broken conservation, pending installs or untruncated redo logs
  after quiesce, a region promoted to a dead primary, or recovery not
  completing at all);
* any account slot is left locked after the final heal (leaked lock);
* the slowest suspicion-to-full-redundancy span exceeds the budget;
* any schedule commits nothing (the cluster lost availability).

Commit-path and pipeline performance is judged by the `benchmark/` package
(`farm-benchmark compare`), not here.

Usage: check_bench_regression.py BENCH_recovery.json
"""

import json
import sys

# Recovery gates. The span budget is deliberately loose: local runs measure
# well under 1 ms from suspicion to restored redundancy, but CI runners are
# shared and the re-replication threads are paced.
MAX_RECOVERY_SPAN_MS = 3000.0
MIN_SCHEDULES = 3


def check_recovery(data: dict) -> int:
    failures = []
    schedules = data.get("schedules", [])
    totals = data.get("totals", {})
    if len(schedules) < MIN_SCHEDULES:
        failures.append(
            f"only {len(schedules)} recovery schedules ran "
            f"(>= {MIN_SCHEDULES} required)"
        )
    for s in schedules:
        seed = s.get("seed")
        if s.get("invariant_violations", 1) != 0:
            failures.append(
                f"seed {seed}: {s['invariant_violations']} recovery "
                f"invariant violation(s)"
            )
        if s.get("leaked_locks", 1) != 0:
            failures.append(f"seed {seed}: {s['leaked_locks']} leaked lock(s)")
        if s.get("committed", 0) <= 0:
            failures.append(f"seed {seed}: no transaction ever committed")
        spans = s.get("spans_ms", {})
        for span in ("suspect_to_config", "suspect_to_unblocked", "suspect_to_rereplicated"):
            v = spans.get(span, -1.0)
            if v < 0:
                failures.append(f"seed {seed}: span {span} never measured")
            elif v > MAX_RECOVERY_SPAN_MS:
                failures.append(
                    f"seed {seed}: {span} took {v:.1f} ms "
                    f"(> {MAX_RECOVERY_SPAN_MS} ms budget)"
                )
    if failures:
        for f in failures:
            print(f"BENCH REGRESSION: {f}", file=sys.stderr)
        return 1
    print(
        f"recovery guard OK: {len(schedules)} schedules, "
        f"{totals.get('invariant_violations', 0)} violations, "
        f"{totals.get('leaked_locks', 0)} leaked locks, "
        f"max recovery span {totals.get('max_recovery_ms', 0.0):.2f} ms "
        f"<= {MAX_RECOVERY_SPAN_MS} ms, "
        f"min committed {totals.get('min_committed', 0)}"
    )
    return 0


def main(path: str) -> int:
    with open(path) as f:
        return check_recovery(json.load(f))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "BENCH_recovery.json"))
