"""Compare two sets of pipeline-ledger results, workload by workload.

    python3 perfbench/compare.py OLD_DIR NEW_DIR

Each directory holds result files written by ``perfbench/run.py`` (under
``.perfbench/results/``).  For every workload and end-to-end metric the
untraced runs' medians are compared against the bound ``BENCHMARK.json``
fixes.  Results taken on different core counts are refused (exit 2); a
regression beyond its bound exits 1.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from ledger import median, same_cores

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> list[dict]:
    """The untraced results in ``directory``."""
    results = [json.loads(p.read_text()) for p in sorted(
        directory.glob("*-trace0.json"))]
    if not results:
        raise SystemExit(f"compare: no untraced results in {directory}")
    return results


def compare(old: list[dict], new: list[dict], spec: dict) -> list[str]:
    """Report lines; raises ValueError on mixed core counts."""
    envs = [r["env"] for r in old + new]
    for env in envs[1:]:
        if not same_cores(envs[0], env):
            raise ValueError(
                f"results taken on different core counts: nproc "
                f"{envs[0]['nproc']} / affinity {len(envs[0]['affinity'])} "
                f"vs nproc {env['nproc']} / affinity {len(env['affinity'])}")
    lines = []
    for workload in sorted({r["workload"] for r in old + new}):
        for m in spec["end_to_end"]:
            name = m["name"]

            def values(results):
                return [r["metrics"][name]["value"] for r in results
                        if r["workload"] == workload
                        and "value" in r["metrics"].get(name, {})]

            a, b = values(old), values(new)
            if not a or not b:
                lines.append(f"{workload} {name}: skipped: no values on "
                             f"{'both sides' if not a and not b else 'one side'}")
                continue
            ma, mb = median(a), median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" \
                else (ma - mb) / ma
            verdict = "REGRESSED" if worse > m["bound"] else "ok"
            lines.append(f"{workload} {name}: {ma:.6g} -> {mb:.6g} "
                         f"{m['unit']} ({worse:+.1%} worse, bound "
                         f"{m['bound']:.0%}, n={len(a)}/{len(b)}) {verdict}")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        lines = compare(load(Path(args[0])), load(Path(args[1])), spec)
    except ValueError as exc:
        print(f"compare: refused: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 1 if any(line.endswith("REGRESSED") for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main())
