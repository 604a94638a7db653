"""Span tracer for the benchmark's traced run, and the per-layer metrics
derived from its spans.

The tracer wraps limitlab's public functions from outside the package:
a function is rebound in every limitlab module namespace that binds it
(so `fragment_embeds` is wrapped in catalog, learners, sigma1 and
adversaries alike), a method is rebound on its class, a registry factory
is rebound in its registry dict, and the step method of each learner and
operator a workload builds is rebound on that instance.  `uninstall`
restores every binding.  Nothing is wrapped unless a tracer is installed.

Every wrapped call is a span: name, start, end and parent span.  A span's
self time is its duration minus the durations of its child spans.  Totals
per name are kept for every span; the spans themselves are kept in memory
up to SPAN_CAP and written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

SPAN_CAP = 300_000

CATALOG_CLASSES = (
    "OmegaOrder", "OmegaStarOrder", "ZetaOrder", "FiniteChain", "Ray",
    "FiniteRay", "Cycle", "IsolatedInfinite", "IsolatedFinite", "PosetP",
    "CycleComplement", "Tilde", "DisjointUnion",
)
LEARNER_CELLS = (
    "ex_minmax", "pl_pairwise", "pl_fstar", "ex_poset", "dec_ex_poset",
    "co", "nus", "dec_nus", "fin", "id_to_co", "ex_min_embed",
    "ex_min_embed-rays",
)
OPERATORS = (
    "gamma_erange", "gamma_erange_to_e3", "gamma_fin_to_eqnat",
    "gamma_fin_to_eqnat_total",
)
ADVERSARIES = (
    "adv_vs_ex_rays", "adv_vs_nus_poset", "adv_vs_co_comparable",
    "adv_vs_fin", "adv_vs_total_id_operator", "adv_vs_e3_operator_fstar",
)

# layers reported with {calls, self_s}
COUNTED_LAYERS = (
    ("structures.extended", "structures.lookup", "structures.induced",
     "structures.embed_map", "catalog.restrict",
     "catalog.strict_order_relation", "catalog.canonical_fragment")
    + tuple("catalog.fragment_embeds." + c for c in CATALOG_CLASSES)
    + ("pairing.unpair", "sigma1.sigma1_leq.default",
       "sigma1.sigma1_leq.bounded", "sigma1.classify_family",
       "sigma1.sat_fragment", "adversaries.retarget")
)
# layers reported with self_s only
SELF_ONLY_LAYERS = (
    "reductions.check_prefix", "harness.check", "harness.factory",
)


def metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for layer in COUNTED_LAYERS:
        specs.append((layer + ".calls", "count", "lower"))
        specs.append((layer + ".self_s", "s", "lower"))
    for layer in SELF_ONLY_LAYERS:
        specs.append((layer + ".self_s", "s", "lower"))
    specs += [
        ("structures.embed_map.hit_ratio", "ratio", "higher"),
        ("adversaries.retarget.hit_ratio", "ratio", "higher"),
        ("sigma1.sigma1_leq.bounded.distinct_ratio", "ratio", "lower"),
    ]
    for cell in LEARNER_CELLS:
        specs.append(("learners.%s.steps" % cell, "count", "lower"))
        specs.append(("learners.%s.step_us" % cell, "us", "lower"))
        specs.append(("learners.%s.doubling_ratio" % cell, "ratio", "lower"))
    for op in OPERATORS:
        specs.append(("reductions.%s.steps" % op, "count", "lower"))
        specs.append(("reductions.%s.step_us" % op, "us", "lower"))
    for adv in ADVERSARIES:
        specs.append(("adversaries.%s.wall_s" % adv, "s", "lower"))
        specs.append(("adversaries.%s.stages" % adv, "count", "lower"))
        specs.append(("adversaries.%s.useful_ratio" % adv, "ratio", "higher"))
    specs += [
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
    ]
    return specs


class Tracer:
    def __init__(self, span_cap=SPAN_CAP):
        self.names = []
        self._ids = {}
        self.calls = []
        self.total = []
        self.self_s = []
        self.hits = []
        self.child_calls = {}  # (parent name id, name id) -> calls; -1 is the root
        # frames: [name id, start, time in child spans, span index]
        self._stack = [[-1, 0.0, 0.0, -1]]
        self._next = 0
        self.span_cap = span_cap
        # kept spans, one array per column
        self._span_index = array("q")
        self._span_name = array("q")
        self._span_parent = array("q")
        self._span_start = array("d")
        self._span_end = array("d")
        self._restore = []
        self._marks = {}

    # -- spans ---------------------------------------------------------

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_s.append(0.0)
            self.hits.append(0)
        return nid

    def wrap(self, name, fn, name_of=None, hit=None):
        """A traced version of fn.  name_of(args, kwargs) picks the span
        name per call; hit(result) counts the call as a hit."""
        nid = self.name_id(name)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = nid if name_of is None else tracer.name_id(name_of(args, kwargs))
            frame = [n, 0.0, 0.0, tracer._next]
            tracer._next += 1
            stack.append(frame)
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, clock())
            if hit is not None and hit(result):
                tracer.hits[n] += 1
            return result

        return traced

    def _close(self, frame, end):
        stack = self._stack
        stack.pop()
        n, start, child, index = frame
        duration = end - start
        parent = stack[-1]
        parent[2] += duration
        self.calls[n] += 1
        self.total[n] += duration
        self.self_s[n] += duration - child
        key = (parent[0], n)
        self.child_calls[key] = self.child_calls.get(key, 0) + 1
        if index < self.span_cap:
            self._span_index.append(index)
            self._span_name.append(n)
            self._span_parent.append(parent[3])
            self._span_start.append(start)
            self._span_end.append(end)

    def span(self, name):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self.name_id(name))

    def mark(self, phase):
        """Snapshot per-name self time; phases are differences of marks."""
        self._marks[phase] = list(self.self_s)

    def phase_self(self, first, last):
        a, b = self._marks[first], self._marks[last]
        return {
            self.names[n]: b[n] - (a[n] if n < len(a) else 0.0)
            for n in range(len(b))
        }

    def write_spans(self, path):
        """Write the kept spans as gzipped TSV: index, name, parent index,
        start, end (seconds on the perf_counter clock)."""
        with gzip.open(path, "wt") as fh:
            fh.write("index\tname\tparent\tstart\tend\n")
            for row in zip(
                self._span_index, self._span_name, self._span_parent,
                self._span_start, self._span_end,
            ):
                fh.write("%d\t%s\t%d\t%.9f\t%.9f\n" % (
                    row[0], self.names[row[1]], row[2], row[3], row[4],
                ))
        return len(self._span_index), self._next

    # -- installation --------------------------------------------------

    def _rebind(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, new)

    def wrap_function(self, module, attr, name, **kw):
        """Rebind module.attr in every limitlab module that binds it."""
        original = getattr(module, attr)
        traced = self.wrap(name, original, **kw)
        for mod_name, mod in sorted(sys.modules.items()):
            if mod_name.split(".")[0] != "limitlab" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._rebind(mod, key, traced)

    def wrap_method(self, cls, attr, name, **kw):
        self._rebind(cls, attr, self.wrap(name, getattr(cls, attr), **kw))

    def wrap_registry(self, registry, name):
        for key, fn in list(registry.items()):
            self._restore.append((registry, key, fn))
            registry[key] = self.wrap(name, fn)

    def wrap_steps(self, steppers):
        """Time step() of each (layer, object) the workload built."""
        for layer, obj in steppers:
            if "step" not in vars(obj):
                self._rebind(obj, "step", self.wrap(layer + ".step", obj.step))

    def install(self):
        from limitlab import (
            adversaries, catalog, harness, pairing, reductions, sigma1,
            structures,
        )

        FF = structures.FiniteFragment
        self.wrap_method(FF, "extended", "structures.extended")
        for attr in ("has", "tuples", "tuples_of"):
            self.wrap_method(FF, attr, "structures.lookup")
        self.wrap_method(FF, "induced", "structures.induced")
        self.wrap_function(
            structures, "embed_map", "structures.embed_map",
            hit=lambda r: r is not None,
        )
        self.wrap_method(catalog.Presentation, "restrict", "catalog.restrict")
        for attr in ("strict_order_relation", "canonical_fragment"):
            self.wrap_function(catalog, attr, "catalog." + attr)
        self.wrap_function(
            catalog, "fragment_embeds", "catalog.fragment_embeds",
            name_of=lambda a, k: "catalog.fragment_embeds."
            + type(a[1] if len(a) > 1 else k["structure"]).__name__,
        )
        self.wrap_function(pairing, "unpair", "pairing.unpair")
        self.wrap_function(
            sigma1, "sigma1_leq", "sigma1.sigma1_leq",
            name_of=lambda a, k: "sigma1.sigma1_leq."
            + ("default" if (a[2] if len(a) > 2 else k.get("max_size"))
               is None else "bounded"),
        )
        for attr in ("classify_family", "sat_fragment"):
            self.wrap_function(sigma1, attr, "sigma1." + attr)
        self.wrap_function(reductions, "check_prefix", "reductions.check_prefix")
        self.wrap_function(harness, "check", "harness.check")
        self.wrap_registry(harness.LEARNERS, "harness.factory")
        self.wrap_registry(harness.GAMMAS, "harness.factory")
        for adv in ADVERSARIES:
            self.wrap_function(adversaries, adv, "adversaries." + adv)
        self.wrap_method(
            adversaries.StreamBuilder, "retarget", "adversaries.retarget",
            hit=bool,
        )
        self.wrap_method(
            adversaries.StreamBuilder, "add_index", "adversaries.add_index"
        )

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            elif value is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)


_ABSENT = object()


class _Span:
    def __init__(self, tracer, nid):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        t = self.tracer
        self.frame = [self.nid, 0.0, 0.0, t._next]
        t._next += 1
        t._stack.append(self.frame)
        self.frame[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.frame, time.perf_counter())
        return False


# ---------------------------------------------------------------------------
# per-layer metrics


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer, outputs):
    """The per-layer metrics a traced run measures: every metric of
    metric_specs() except the doubling ratios and the tracing overhead,
    which need the untraced run.

    outputs: {task id: digest view} of the traced cycle, for the stages
    of the adversaries' certifying rounds.
    """
    ids = tracer._ids

    def stat(name, what):
        n = ids.get(name)
        return 0 if n is None else what[n]

    values = {}
    for layer in COUNTED_LAYERS + SELF_ONLY_LAYERS:
        values[layer + ".calls"] = stat(layer, tracer.calls)
        values[layer + ".self_s"] = stat(layer, tracer.self_s)
    for layer in ("structures.embed_map", "adversaries.retarget"):
        values[layer + ".hit_ratio"] = _ratio(
            stat(layer, tracer.hits), stat(layer, tracer.calls)
        )

    bounded = ids.get("sigma1.sigma1_leq.bounded")
    embeds = induced = 0
    for (parent, child), count in tracer.child_calls.items():
        if parent == bounded and bounded is not None:
            if tracer.names[child].startswith("catalog.fragment_embeds."):
                embeds += count
            elif tracer.names[child] == "structures.induced":
                induced += count
    values["sigma1.sigma1_leq.bounded.distinct_ratio"] = _ratio(embeds, induced)

    for group, labels in (("learners", LEARNER_CELLS), ("reductions", OPERATORS)):
        for label in labels:
            name = "%s.%s.step" % (group, label)
            steps = stat(name, tracer.calls)
            values["%s.%s.steps" % (group, label)] = steps
            values["%s.%s.step_us" % (group, label)] = 1e6 * _ratio(
                stat(name, tracer.total), steps
            )
    add_index = ids.get("adversaries.add_index")
    for adv in ADVERSARIES:
        name = "adversaries." + adv
        n = ids.get(name)
        stages = tracer.child_calls.get((n, add_index), 0)
        useful = sum(
            out["useful_stages"] for tid, out in outputs.items()
            if tid.split("/")[0] == adv
        )
        values[name + ".wall_s"] = stat(name, tracer.total)
        values[name + ".stages"] = stages
        values[name + ".useful_ratio"] = _ratio(useful, stages)

    return values


def doubling_ratios(records):
    """learners.<cell>.doubling_ratio: a cell's total run time at its
    horizon over its total at half that horizon, from untraced task
    records [task id, label, horizon, seconds, units, failed]."""
    by_cell = {}
    for _, label, horizon, seconds, _, _ in records:
        by_h = by_cell.setdefault(label, {})
        by_h[horizon] = by_h.get(horizon, 0.0) + seconds
    values = {}
    for cell in LEARNER_CELLS:
        by_h = by_cell.get(cell, {})
        ratio = 0.0
        if len(by_h) == 2:
            lo, hi = sorted(by_h)
            ratio = _ratio(by_h[hi], by_h[lo])
        values["learners.%s.doubling_ratio" % cell] = ratio
    return values


def stage_check(tracer, outputs):
    """{adversary: (stages by the doubling-round formula, add_index calls
    traced beneath it)}; the two must agree."""
    ids = tracer._ids
    add_index = ids.get("adversaries.add_index")
    out = {}
    for tid, view in outputs.items():
        adv = tid.split("/")[0]
        if adv in ADVERSARIES:
            formula, _ = out.get(adv, (0, 0))
            traced = tracer.child_calls.get(
                (ids.get("adversaries." + adv), add_index), 0
            )
            out[adv] = (formula + view["stages"], traced)
    return out


# ---------------------------------------------------------------------------
# predictions: which layer should move which end-to-end metric

# (layer-name prefixes, [(workload, metric)] it should move, workloads on
# which it should not move units_per_s).  A layer "moves" a metric on a
# workload when its self time is at least MOVE_SHARE of the phase that
# metric times (set-up for setup_s, the timed cycle otherwise), and "does
# not move" it when its share stays below MOVE_SHARE.
MOVE_SHARE = 0.01
PREDICTIONS = (
    (("structures.extended", "structures.lookup"),
     [("matrix", "units_per_s"), ("duel", "units_per_s")], ["age"]),
    (("structures.induced",), [("age", "units_per_s")], ["duel"]),
    (("structures.embed_map",),
     [("duel", "units_per_s"), ("matrix", "task_tail_s")], []),
    (("catalog.",),
     [("matrix", "units_per_s"), ("matrix", "task_tail_s")], ["age"]),
    (("pairing.unpair",), [("duel", "units_per_s")], ["matrix", "age"]),
    (("sigma1.sigma1_leq.",),
     [("age", "units_per_s"), ("matrix", "setup_s"), ("duel", "setup_s")],
     ["matrix"]),
    (("sigma1.classify_family", "sigma1.sat_fragment"),
     [("matrix", "setup_s"), ("age", "setup_s"), ("duel", "setup_s"),
      ("matrix", "task_tail_s")], []),
    (("learners.",),
     [("matrix", "units_per_s"), ("matrix", "task_tail_s")], ["age", "duel"]),
    (("reductions.",), [("duel", "units_per_s")], ["matrix", "age"]),
    (("adversaries.",),
     [("duel", "units_per_s"), ("duel", "task_tail_s")], ["matrix", "age"]),
    (("harness.check", "harness.factory"),
     [("matrix", "setup_s"), ("age", "setup_s"), ("duel", "setup_s")],
     ["matrix", "age", "duel"]),
)


def check_predictions(workload, setup_self, cycle_self, setup_wall, cycle_wall):
    """Each prediction that concerns this workload, with the layer's
    measured share and whether the share confirms it."""
    out = []
    for prefixes, moves, still in PREDICTIONS:
        def share(selfs, wall):
            t = sum(v for k, v in selfs.items() if k.startswith(prefixes))
            return _ratio(t, wall)

        layer = "+".join(prefixes)
        for w, metric in moves:
            if w != workload:
                continue
            if metric == "setup_s":
                s = share(setup_self, setup_wall)
            else:
                s = share(cycle_self, cycle_wall)
            out.append({
                "layer": layer, "metric": metric, "predicted": "moves",
                "share": round(s, 4),
                "outcome": "confirmed" if s >= MOVE_SHARE else "refuted",
            })
        if workload in still:
            s = share(cycle_self, cycle_wall)
            out.append({
                "layer": layer, "metric": "units_per_s",
                "predicted": "does not move", "share": round(s, 4),
                "outcome": "confirmed" if s < MOVE_SHARE else "refuted",
            })
    return out
