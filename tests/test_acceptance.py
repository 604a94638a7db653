"""End-to-end acceptance checks.

Each test prints a single criterion verdict line even under pytest's
output capture, then asserts it, so a full run reads as a scoreboard.
"""

import itertools
import random

import pytest

from limitlab import harness as H
from limitlab.adversaries import (
    adv_vs_ex_rays,
    adv_vs_nus_poset,
    adv_vs_total_id_operator,
)
from limitlab.catalog import Presentation, canonical_fragment, parse_structure
from limitlab.learners import QUESTION, ConfigurationError, run
from limitlab.pairing import pair
from limitlab.reductions import run_operator, verify_reduction
from limitlab.sigma1 import classify_family, sigma1_leq
from limitlab.structures import embed_finite

from _decisive import decisive_stream
from _oracles import brute_age_inclusion, brute_embed_all_injections


@pytest.fixture
def announce(capsys):
    def _announce(num, ok, note=""):
        with capsys.disabled():
            tail = " - " + note if note else ""
            print("criterion %02d: %s%s" % (num, "PASS" if ok else "FAIL", tail))
        assert ok, "criterion %02d: %s" % (num, note)

    return _announce


def run_cells(family_name, learner_name, criterion, members, seeds, **kw):
    family = H.get_family(family_name)
    learner = H.LEARNERS[learner_name](family)
    spec = H.CriterionSpec(criterion, **kw)
    out = []
    for code in members:
        for seed in seeds:
            out.append(
                (code, seed, H.run_cell(family, learner, spec, code, seed))
            )
    return out


def test_criterion_01_ex_minmax(announce):
    results = run_cells(
        "omega_pair", "ex_minmax", "Ex", (0, 1), range(10),
        horizon=512, tail=64,
    )
    failures = [r for r in results if r[2].status != "PASS"]
    announce(1, not failures, "%d runs, %d failures" % (len(results), len(failures)))


def test_criterion_02_fin_strong_antichain(announce):
    family = H.get_family("cycles")
    level = classify_family(family).level
    ok = level == "StrongAntichain"
    note = "level=%s" % level
    if ok:
        learner = H.LEARNERS["fin"](family)
        spec = H.CriterionSpec("Fin", horizon=512, tail=64)
        bad = 0
        for code in (0, 1):
            for seed in range(1, 6):
                transcript = run(
                    learner, Presentation(family.members[code], seed), 512
                )
                committed = set(h for h in transcript if h != QUESTION)
                verdict = H.check(spec, transcript, code, family)
                if verdict.status != "PASS" or committed != {code}:
                    bad += 1
        ok = bad == 0
        note += ", 10 runs, %d bad" % bad
    announce(2, ok, note)


def test_criterion_03_co_cycle_complements(announce):
    results = run_cells(
        "cyc_comp", "co", "Co", range(4), (1, 2, 3), horizon=1024,
    )
    failures = [r for r in results if r[2].status != "PASS"]
    announce(3, not failures, "%d runs, %d failures" % (len(results), len(failures)))


def test_criterion_04_nus_and_decisive(announce):
    results = run_cells(
        "tilde_chains", "nus", "NUs", (0, 1), range(1, 6),
        horizon=512, tail=64,
    )
    failures = [r for r in results if r[2].status != "PASS"]

    def abandon_return_free(seq):
        abandoned, last = set(), None
        for h in seq:
            if h == QUESTION:
                continue
            if h in abandoned:
                return False
            if last is not None and h != last:
                abandoned.add(last)
            last = h
        return True

    streams_ok = True
    symbols = ["a", "b", "c"]
    for length in range(7):
        for seq in itertools.product(symbols, repeat=length):
            if not abandon_return_free(decisive_stream(list(seq))):
                streams_ok = False
    rng = random.Random(0)
    for _ in range(1000):
        seq = [rng.choice(symbols) for _ in range(rng.randint(0, 24))]
        if not abandon_return_free(decisive_stream(seq)):
            streams_ok = False

    ok = not failures and streams_ok
    announce(4, ok, "%d learner failures, streams_ok=%s" % (len(failures), streams_ok))


def test_criterion_05_pl_from_pairwise(announce):
    results = run_cells(
        "omega_pair", "pl_pairwise", "PL", (0, 1), (1,),
        horizon=1024, window=50,
    )
    failures = [r for r in results if r[2].status != "PASS"]
    # the PL checker already demands that wrong codes stop occurring in
    # the final half, which pins their counts
    announce(5, not failures, "%d runs, %d failures" % (len(results), len(failures)))


def test_criterion_06_pl_fstar(announce):
    results = run_cells(
        "fstar", "pl_fstar", "PL", range(7), (1, 2, 3),
        horizon=512, window=50,
    )
    failures = [r for r in results if r[2].status != "PASS"]
    announce(6, not failures, "%d runs, %d failures" % (len(results), len(failures)))


def test_criterion_07_gamma_erange(announce):
    family = H.get_family("tilde_chains")
    op = H.GAMMAS["gamma_erange"](family)
    report = verify_reduction(op, family, horizon=100)
    marker = pair(1, 0)
    prefix = run_operator(op, Presentation(family.members[1], 1), 100)
    separated = marker in prefix.range_set
    try:
        H.GAMMAS["gamma_erange"](H.get_family("omega_pair"))
        rejected = False
    except ConfigurationError:
        rejected = True
    ok = report["passed"] and separated and rejected
    announce(
        7, ok,
        "verified=%s separation_code=%s rejected_omega_pair=%s"
        % (report["passed"], separated, rejected),
    )


@pytest.fixture(scope="module")
def duel_results():
    rays = H.get_family("rays")
    posets = H.get_family("posets")
    cycles = H.get_family("cycles")
    return {
        "rays": adv_vs_ex_rays(H.LEARNERS["ex_min_embed"](rays)),
        "nus": adv_vs_nus_poset(H.LEARNERS["ex_poset"](posets)),
        "dec": adv_vs_nus_poset(H.LEARNERS["dec_ex_poset"](posets)),
        "id": adv_vs_total_id_operator(
            H.GAMMAS["gamma_fin_to_eqnat_total"](cycles), cycles
        ),
    }


def test_criterion_08_adversaries_vs_learners(announce, duel_results):
    rays_kind = duel_results["rays"][1].kind
    nus_kind = duel_results["nus"][1].kind
    dec_kind = duel_results["dec"][1].kind
    ok = (
        rays_kind in ("InfinitelyManyMindChanges", "StuckWrong")
        and nus_kind == "AbandonReturn"
        and dec_kind == "StuckWrong"
    )
    announce(
        8, ok, "rays=%s nus=%s dec=%s" % (rays_kind, nus_kind, dec_kind)
    )


def test_criterion_09_id_operator_refuted(announce, duel_results):
    cert = duel_results["id"][1]
    announce(9, cert.kind == "PrefixDisagreement", "kind=%s" % cert.kind)


FINITE_KEYS = (
    ["chain(%d)" % n for n in range(2, 7)]
    + ["ray(%d)" % n for n in range(2, 7)]
    + ["cycle(%d)" % n for n in range(3, 7)]
    + ["iso(%d)" % n for n in range(1, 7)]
)

GRID_KEYS = (
    ["omega", "omega_star", "zeta", "ray", "iso_inf"]
    + FINITE_KEYS
    + ["cyc_comp(%d)" % n for n in range(3, 7)]
    + ["poset_p(%d)" % k for k in range(0, 7)]
)


def test_criterion_10_exact_oracle_agreement(announce):
    fragments = [
        canonical_fragment(parse_structure(k), parse_structure(k).size())
        for k in FINITE_KEYS
    ]
    embed_mismatches = 0
    for f in fragments:
        for g in fragments:
            if embed_finite(f, g) != brute_embed_all_injections(f, g):
                embed_mismatches += 1
    structs = [parse_structure(k) for k in GRID_KEYS]
    leq_mismatches = 0
    for a in structs:
        for b in structs:
            if sigma1_leq(a, b, max_size=5) != brute_age_inclusion(a, b, 5):
                leq_mismatches += 1
    ok = embed_mismatches == 0 and leq_mismatches == 0
    announce(
        10, ok,
        "%d fragment pairs, %d structure pairs, %d+%d mismatches"
        % (
            len(fragments) ** 2, len(structs) ** 2,
            embed_mismatches, leq_mismatches,
        ),
    )


def test_criterion_11_certificates_replay(announce, duel_results):
    rays = H.get_family("rays")
    posets = H.get_family("posets")
    cycles = H.get_family("cycles")
    reruns = {
        "rays": adv_vs_ex_rays(H.LEARNERS["ex_min_embed"](rays)),
        "nus": adv_vs_nus_poset(H.LEARNERS["ex_poset"](posets)),
        "dec": adv_vs_nus_poset(H.LEARNERS["dec_ex_poset"](posets)),
        "id": adv_vs_total_id_operator(
            H.GAMMAS["gamma_fin_to_eqnat_total"](cycles), cycles
        ),
    }
    stable = [
        name
        for name in reruns
        if reruns[name][1] == duel_results[name][1]
    ]
    ok = len(stable) == len(reruns)
    announce(11, ok, "%d/%d certificates identical" % (len(stable), len(reruns)))
