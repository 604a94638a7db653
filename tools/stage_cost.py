"""Print each registered learner's cost per horizon doubling, and the
cost of the bounded age grid.

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
cell.

The second table times `sigma1.age_fragments` over the structure grid of
bench/config/age.json at max_size 3, 4 and 5: the best of two passes, each
from empty sigma1 memos after a warm-up pass that builds the canonical
prefixes, and the `induced` calls of one more such pass.  Wall times on a
shared machine move between runs; the counts repeat exactly.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from limitlab import harness, sigma1  # noqa: E402
from limitlab.catalog import Presentation, parse_structure  # noqa: E402
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


def call_counts(work, *args):
    """(`induced` calls, rooted `embed_map` calls) of one work(*args)."""
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
        work(*args)
    finally:
        FiniteFragment.induced, sigma1.embed_map = real_induced, real_map
    return calls


def age_pass(grid, max_size):
    """The grid's bounded ages from empty age memos; the seconds taken."""
    sigma1._ages.clear()
    sigma1._fragments.clear()
    start = time.perf_counter()
    for a in grid:
        sigma1.age_fragments(a, max_size)
    return time.perf_counter() - start


def age_table():
    config = json.loads((ROOT / "bench" / "config" / "age.json").read_text())
    grid = [parse_structure(key) for key in config["grid"]]
    print()
    print("| bounded grid | max_size | enumeration | `induced` |")
    print("| --- | --- | --- | --- |")
    for k in (3, 4, 5):
        age_pass(grid, k)  # warm-up
        took = min(age_pass(grid, k) for _ in range(REPEATS))
        print("| %d structures | %d | %.4f s | %d |" % (
            len(grid), k, took, call_counts(age_pass, grid, k)[0]
        ))


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
        counts = [
            call_counts(run_members, learner, family, n) for n in horizons
        ]
        print("| `%s` (`%s`) | %d | %s s | %.1f | %s | %s |" % (
            cell["learner"], cell["family"], h,
            " / ".join("%.3f" % t for t in times), times[2] / times[1],
            " / ".join(str(c[0]) for c in counts),
            " / ".join(str(c[1]) for c in counts),
        ))
        sys.stdout.flush()
    age_table()


if __name__ == "__main__":
    main()
