"""Record the per-cell study results the study workloads are checked against.

    python3 perfbench/record_reference.py

Runs ``simulate`` serially at every master seed in ``run.STUDY_SEEDS``, with
the workloads' grid and replication count, and rewrites
``reference_study.json``: one ``[p, n, rho, ml, ltl, pclr, pcltl, divergent]``
row per cell.  Record again only for a change that is meant to alter the
study's numbers, and say so where the change is described.
"""

import json
import sys

import run


def main() -> int:
    env = run.child_env()
    out = run.WORK / "reference"
    seeds = {}
    for seed in run.STUDY_SEEDS:
        cmd = [
            sys.executable, "-m", "liulogit.cli", "simulate", *run.STUDY_GRID,
            "--reps", str(run.STUDY_REPS), "--seed", str(seed),
            "--workers", "1", "--out", str(out),
        ]
        code, _, err = run.run_child(cmd, env)
        if code != 0:
            print(f"simulate --seed {seed} exited {code}:\n{err}", file=sys.stderr)
            return 1
        cells = run.study_cells((out / "study.json").read_bytes())
        seeds[str(seed)] = [[*coords, *values] for coords, values in cells.items()]
    blocks = [
        f' "{seed}": [\n' + ",\n".join("  " + json.dumps(row) for row in rows) + "\n ]"
        for seed, rows in seeds.items()
    ]
    header = json.dumps({"reps": run.STUDY_REPS, "grid": run.STUDY_GRID})[:-1]
    text = header + ', "seeds": {\n' + ",\n".join(blocks) + "\n}}\n"
    run.REFERENCE_FILE.write_text(text, encoding="utf-8")
    print(f"wrote {len(seeds)} seeds to {run.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
