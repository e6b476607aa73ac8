"""Record the answer digests that run.py checks against.

    python3 perfbench/record_answers.py

Runs one untraced pass of every workload at the default seed and writes
perfbench/answers.json.  Run it only at a commit whose answers are
trusted: the file defines what counts as a correct answer.
"""

from __future__ import annotations

import json

from probes import Probes
from run import ANSWERS, Samples, digest, examine, run_pass, set_up
from workloads import WORKLOADS

SEED = 1


def main() -> None:
    answers = {}
    for name in WORKLOADS:
        _, items = set_up(name, SEED)
        records = run_pass(items, Probes(), traced=False)
        outcomes, errors = examine(records, Samples())
        if errors:
            raise SystemExit("\n".join(errors))
        answers[name] = {o.id: digest(o.answer) for o in outcomes}
        print(f"{name}: {len(outcomes)} answers")
    ANSWERS.write_text(json.dumps({"seed": SEED, "answers": answers}, indent=1,
                                  sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
