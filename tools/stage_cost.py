"""Print each registered learner's cost per horizon doubling.

    python tools/stage_cost.py

Stdlib only.  Each cell of bench/config/matrix.json names a registered
learner, its family and a horizon h.  The learner runs on every member of
its family, each on a fresh seeded presentation (seed 1), at h, 2h and 4h,
after one warm-up run at h that fills the module caches (canonical
prefixes, classifications).  A time is the best of two runs over all the
members; `induced` counts the `FiniteFragment.induced` calls and `rooted`
the rooted `embed_map` searches (a stream watch's searches through a new
element) of one more run at each horizon, made apart so that counting
costs no timed run anything.  The output is one Markdown table row per
cell.  Wall times on a shared machine move between runs; the counts
repeat exactly.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from limitlab import harness, sigma1  # noqa: E402
from limitlab.catalog import Presentation  # noqa: E402
from limitlab.learners import run  # noqa: E402
from limitlab.structures import FiniteFragment  # noqa: E402

SEED = 1
REPEATS = 2


def run_members(learner, family, horizon):
    for member in family:
        run(learner, Presentation(member, SEED), horizon)


def best_time(learner, family, horizon):
    best = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        run_members(learner, family, horizon)
        took = time.perf_counter() - start
        best = took if best is None else min(best, took)
    return best


def call_counts(learner, family, horizon):
    """(`induced` calls, rooted `embed_map` calls) of one run."""
    calls = [0, 0]
    real_induced, real_map = FiniteFragment.induced, sigma1.embed_map

    def induced(self, elements):
        calls[0] += 1
        return real_induced(self, elements)

    def embed_map(f, g, required=None):
        calls[1] += required is not None
        return real_map(f, g, required=required)

    FiniteFragment.induced, sigma1.embed_map = induced, embed_map
    try:
        run_members(learner, family, horizon)
    finally:
        FiniteFragment.induced, sigma1.embed_map = real_induced, real_map
    return calls


def main():
    cells = json.loads((ROOT / "bench" / "config" / "matrix.json").read_text())
    print("| learner (family) | h | h / 2h / 4h | 4h/2h | `induced` | rooted |")
    print("| --- | --- | --- | --- | --- | --- |")
    for cell in cells["cells"]:
        family = harness.get_family(cell["family"])
        learner = harness.LEARNERS[cell["learner"]](family)
        h = cell["horizon"]
        run_members(learner, family, h)  # warm-up
        horizons = (h, 2 * h, 4 * h)
        times = [best_time(learner, family, n) for n in horizons]
        counts = [call_counts(learner, family, n) for n in horizons]
        print("| `%s` (`%s`) | %d | %s s | %.1f | %s | %s |" % (
            cell["learner"], cell["family"], h,
            " / ".join("%.3f" % t for t in times), times[2] / times[1],
            " / ".join(str(c[0]) for c in counts),
            " / ".join(str(c[1]) for c in counts),
        ))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
