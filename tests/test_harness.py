import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from limitlab import cli
from limitlab import harness as H
from limitlab import learners as L
from limitlab import sigma1
from limitlab.catalog import Presentation
from limitlab.learners import QUESTION


def spec(kind, horizon=6, tail=4, window=2, budget=None):
    return H.CriterionSpec(
        kind, horizon=horizon, tail=tail, window=window, budget=budget
    )


FAM = H.get_family("omega_pair")


class TestCheck:
    def test_ex_settled_tail_passes(self):
        v = H.check(spec("Ex"), ["?", "?", 0, 0, 0, 0], 0, FAM)
        assert v.status == "PASS"

    def test_ex_stuck_wrong(self):
        v = H.check(spec("Ex"), ["?", "?", 1, 1, 1, 1], 0, FAM)
        assert v.status == "FAIL"
        assert v.certificate.kind == "StuckWrong"

    def test_ex_oscillation(self):
        v = H.check(spec("Ex"), [0, 1, 0, 1, 0, 1], 0, FAM)
        assert v.status == "FAIL"
        assert v.certificate.kind == "InfinitelyManyMindChanges"

    def test_fin_revision_fails(self):
        v = H.check(spec("Fin", horizon=4, tail=2), ["?", 0, 1, 1], 1, FAM)
        assert v.status == "FAIL"
        assert v.certificate.kind == "CommitRevised"

    def test_fin_single_commit_passes(self):
        v = H.check(spec("Fin", horizon=4, tail=2), ["?", 1, 1, 1], 1, FAM)
        assert v.status == "PASS"

    def test_fin_stuck_wrong(self):
        v = H.check(spec("Fin", horizon=8), [1] * 8, 0, FAM)
        assert v.status == "FAIL"
        assert v.certificate.kind == "StuckWrong"
        assert v.certificate.details == {"final_hypothesis": 1, "truth_code": 0}

    def test_fin_silence_fails(self):
        v = H.check(spec("Fin", horizon=4, tail=2), ["?"] * 4, 1, FAM)
        assert v.status == "FAIL"
        assert v.certificate.kind == "NeverCommits"

    def test_alpha_fin_budget(self):
        transcript = [0, 1, 0, 0, 0, 0]
        over = H.check(spec("AlphaFin", budget=1), transcript, 0, FAM)
        assert over.status == "FAIL"
        assert over.certificate.kind == "MindChangeBudgetExceeded"
        under = H.check(spec("AlphaFin", budget=2), transcript, 0, FAM)
        assert under.status == "PASS"

    def test_co_truth_emission_fails(self):
        v = H.check(spec("Co"), [1, 0, 1, 1, 1, 1], 0, FAM)
        assert v.status == "FAIL"
        assert v.certificate.kind == "CorrectCodeEmitted"

    def test_co_omission_passes(self):
        v = H.check(spec("Co"), ["?", 1, 1, 1, 1, 1], 0, FAM)
        assert v.status == "PASS"

    def test_co_missing_other_code(self):
        v = H.check(spec("Co"), ["?"] * 6, 0, FAM)
        assert v.status == "FAIL"
        assert v.certificate.kind == "MissingCode"

    def test_pl_recurrence_gap(self):
        transcript = [0] * 10 + ["?"] * 10
        v = H.check(spec("PL", horizon=20, tail=4, window=4), transcript, 0, FAM)
        assert v.status == "FAIL"
        assert v.certificate.kind == "RecurrenceGap"

    def test_pl_wrong_code_recurs(self):
        transcript = [0, 1] * 10
        v = H.check(spec("PL", horizon=20, tail=4, window=4), transcript, 0, FAM)
        assert v.status == "FAIL"
        assert v.certificate.kind == "WrongCodeRecurs"

    def test_pl_clean_recurrence_passes(self):
        transcript = [1] * 10 + [0, "?"] * 5
        v = H.check(spec("PL", horizon=20, tail=4, window=4), transcript, 0, FAM)
        assert v.status == "PASS"

    def test_nus_abandoned_truth(self):
        v = H.check(spec("NUs"), [0, 1, 0, 0, 0, 0], 0, FAM)
        assert v.status == "FAIL"
        assert v.certificate.kind == "AbandonedTruth"

    def test_dec_abandon_return(self):
        v = H.check(spec("Dec"), [0, 1, 0, 0, 0, 0], 0, FAM)
        assert v.status == "FAIL"
        assert v.certificate.kind == "AbandonReturn"
        # a "?" abandons nothing, and is skipped between an abandonment
        # and the return
        v = H.check(spec("Dec"), [0, "?", 0, 0, 0, 0], 0, FAM)
        assert v.status == "PASS"
        v = H.check(spec("Dec"), [0, 1, "?", 0, 0, 0], 0, FAM)
        assert v.status == "FAIL"
        assert v.certificate.kind == "AbandonReturn"
        assert v.certificate.details == {"code": 0, "stages": [1, 3]}

    def test_dec_clean_run_passes(self):
        v = H.check(spec("Dec"), [1, 0, 0, 0, 0, 0], 0, FAM)
        assert v.status == "PASS"

    def test_short_transcript_inconclusive(self):
        v = H.check(spec("Ex"), [0, 0], 0, FAM)
        assert v.status == "INCONCLUSIVE"

    def test_totality_on_garbage(self):
        # no scan hashes a hypothesis or orders two types, and a truth
        # outside the family is read as a code like any other
        garbage = ([None] * 6, [object()] * 6, [0.5, {}, (), "x", 0, 0],
                   [0, "x", 1, "?", 1, 1])
        for kind in H.CRITERIA:
            for transcript in garbage:
                for truth in (0, 7):
                    v = H.check(spec(kind, budget=1), transcript, truth, FAM)
                    assert v.status in ("PASS", "FAIL")

    def test_totality_on_garbage_late_in_pl(self):
        # the wrong codes of the final half mix a string and an int
        transcript = [0, 0, 0, 0, 0, "x", 0, 1]
        v = H.check(spec("PL", horizon=8, window=2), transcript, 0, FAM)
        assert v.certificate.kind == "WrongCodeRecurs"
        assert v.certificate.details == {"codes": ["x", 1]}

    @pytest.mark.parametrize("kind", H.CRITERIA)
    def test_every_criterion_is_checked(self, kind):
        # a spec only admits a kind in CRITERIA, and each one has a checker
        budget = 1 if kind == "AlphaFin" else None
        v = H.check(spec(kind, budget=budget), [0] * 6, 0, FAM)
        assert isinstance(v, H.Verdict)
        assert v.status in ("PASS", "FAIL")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            H.CriterionSpec("Ex", horizon=10, window=10)
        with pytest.raises(ValueError):
            H.CriterionSpec("Nope")
        with pytest.raises(ValueError):
            H.CriterionSpec("AlphaFin")

    def test_checker_error_propagates(self, monkeypatch):
        # a checker bug is not a result: check must not turn it into an
        # INCONCLUSIVE verdict
        def broken(spec, transcript, truth, family):
            raise RuntimeError("checker bug")

        monkeypatch.setitem(H.CHECKS, "Ex", (broken,))
        with pytest.raises(RuntimeError, match="checker bug"):
            H.check(spec("Ex"), [0] * 6, 0, FAM)

    def test_fail_verdict_needs_certificate(self):
        # checked with raise, not assert, so it also holds under -O
        with pytest.raises(ValueError):
            H.Verdict("FAIL")


class TestMatrix:
    def test_incompatible_cell_skipped(self):
        rows = H.run_matrix(
            [{"family": "omega_pair", "learner": "fin", "criterion": "Fin"}]
        )
        assert [r["verdict"].status for r in rows] == ["SKIPPED"]
        assert H.matrix_exit_code(rows) == 0

    def test_rows_serialize(self):
        rows = H.run_matrix(
            [
                {
                    "family": "omega_pair",
                    "learner": "ex_minmax",
                    "criterion": "Ex",
                    "horizon": 128,
                    "tail": 16,
                    "window": 8,
                    "member": 0,
                }
            ]
        )
        blob = json.dumps(H.row_to_json(rows[0]))
        parsed = json.loads(blob)
        assert parsed["verdict"]["status"] == "PASS"
        assert "PASS" in H.render_table(rows)


class TestRegistries:
    def test_fin_family_order_built_once(self, monkeypatch, fresh_sigma1):
        # fin, id_to_co and gamma_fin_to_eqnat read one classification of
        # cycles, and none of them checks its witnesses again
        counts = {"classify": 0, "embeds": 0}
        classify, embeds = sigma1._classify, sigma1.fragment_embeds

        def counted(key, fn):
            def wrapped(*args):
                counts[key] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(sigma1, "_classify", counted("classify", classify))
        monkeypatch.setattr(
            sigma1, "fragment_embeds", counted("embeds", embeds)
        )
        H.LEARNERS["fin"](H.get_family("cycles"))
        searched = counts["embeds"]
        H.LEARNERS["id_to_co"](H.get_family("cycles"))
        H.GAMMAS["gamma_fin_to_eqnat"](H.get_family("cycles"))
        assert counts == {"classify": 1, "embeds": searched}


# each surrogate kind: a spec, a transcript that fails it with that kind
# (truth 0), and an extension to twice the horizon that passes
SURROGATE_FAILS = {
    "StuckWrong": (spec("Ex", horizon=4, tail=2), [1] * 4, [0] * 4),
    "InfinitelyManyMindChanges": (
        spec("Ex", horizon=4, tail=2), [0, 1, 0, 1], [0] * 4
    ),
    "NeverCommits": (spec("Fin", horizon=4), [QUESTION] * 4, [0] * 4),
    "MissingCode": (spec("Co", horizon=4), [QUESTION] * 4, [1] * 4),
    "RecurrenceGap": (
        spec("PL", horizon=8), [0] * 4 + [QUESTION] * 4, [0] * 8
    ),
    "WrongCodeRecurs": (
        spec("PL", horizon=8), [0, 0, 0, 0, 1, 0, 0, 0], [0] * 8
    ),
}


class TestMonotoneEvidence:
    def test_stuck_wrong_persists_at_doubled_horizon(self):
        base = spec("Ex", horizon=8, tail=4, window=2)
        doubled = spec("Ex", horizon=16, tail=4, window=2)
        transcript = [0] + [1] * 15
        assert H.check(base, transcript, 0, FAM).certificate.kind == "StuckWrong"
        assert (
            H.check(doubled, transcript, 0, FAM).certificate.kind
            == "StuckWrong"
        )

    def test_safety_fail_is_final(self):
        # a FAIL from a scan before the last of its CHECKS row stands on
        # every extension to twice the horizon; only Fin's StuckWrong may
        # turn into CommitRevised
        seen = set()

        @settings(max_examples=300, deadline=None, derandomize=True)
        @given(st.data())
        def extension_keeps_the_fail(data):
            kind = data.draw(st.sampled_from(H.CRITERIA))
            h = data.draw(st.integers(2, 12))
            base = spec(
                kind, horizon=h, tail=data.draw(st.integers(1, h)),
                window=data.draw(st.integers(1, h - 1)),
                budget=data.draw(st.integers(0, 3)),
            )
            codes = st.lists(
                st.sampled_from([QUESTION, 0, 1, 2, 3]), min_size=h,
                max_size=h,
            )
            transcript, truth = data.draw(codes), data.draw(st.integers(0, 1))
            scan = _failing_scan(base, transcript, truth)
            safety = range(len(H.CHECKS[kind]) - 1)
            assume(scan in safety)
            found = H.check(base, transcript, truth, FAM).certificate.kind
            seen.add((kind, found))
            longer = transcript + data.draw(codes)
            doubled = replace(base, horizon=2 * h)
            assert _failing_scan(doubled, longer, truth) in safety
            later = H.check(doubled, longer, truth, FAM).certificate.kind
            assert later == found or (kind, found, later) == (
                "Fin", "StuckWrong", "CommitRevised"
            )

        extension_keeps_the_fail()
        assert seen == {
            ("Fin", "CommitRevised"), ("Fin", "StuckWrong"),
            ("AlphaFin", "MindChangeBudgetExceeded"),
            ("Co", "CorrectCodeEmitted"), ("NUs", "AbandonedTruth"),
            ("Dec", "AbandonReturn"),
        }

    @pytest.mark.parametrize("kind", SURROGATE_FAILS)
    def test_surrogate_fail_can_be_undone(self, kind):
        # the last scan of a CHECKS row reads a limit at the horizon, so
        # a longer run may PASS where the shorter one failed
        base, transcript, extension = SURROGATE_FAILS[kind]
        assert H.check(base, transcript, 0, FAM).certificate.kind == kind
        last = len(H.CHECKS[base.kind]) - 1
        assert _failing_scan(base, transcript, 0) == last
        doubled = replace(base, horizon=2 * base.horizon)
        longer = transcript + extension
        assert H.check(doubled, longer, 0, FAM).status == "PASS"

    def test_bench_matrix_fails_at_doubled_horizons(self):
        # every bench matrix cell at h, 2h and 4h (tail and window scaled)
        # on seeds 1-3: each FAIL comes from the surrogate of its row, and
        # only these rows do not PASS at every horizon
        config = Path(__file__).parent.parent / "bench/config/matrix.json"
        kinds = {}
        for cell in json.loads(config.read_text())["cells"]:
            family = H.get_family(cell["family"])
            learner = H.LEARNERS[cell["learner"]](family)
            for code in range(len(family)):
                for seed in (1, 2, 3):
                    presentation = Presentation(family.members[code], seed)
                    transcript = L.run(
                        learner, presentation, 4 * cell["horizon"]
                    )
                    row = []
                    for k in (1, 2, 4):
                        at = H.CriterionSpec(
                            cell["criterion"], horizon=k * cell["horizon"],
                            tail=k * cell["tail"], window=k * cell["window"],
                        )
                        v = H.check(at, transcript, code, family)
                        if v.status == "FAIL":
                            assert _failing_scan(
                                at, transcript, code, family
                            ) == len(H.CHECKS[at.kind]) - 1
                        row.append(v.certificate.kind if v.certificate
                                   else v.status)
                    if row != ["PASS"] * 3:
                        kinds[cell["id"], code, seed] = tuple(row)
        missing = ("MissingCode", "MissingCode", "PASS")
        assert kinds == {
            **{("co", m, s): missing for m in range(4) for s in (1, 2, 3)},
            ("co", 3, 3): ("MissingCode", "PASS", "PASS"),
            **{("dec_ex_poset", 1, s): ("StuckWrong",) * 3 for s in (1, 2, 3)},
        }


def _failing_scan(spec, transcript, truth, family=FAM):
    """The position in its CHECKS row of the scan that fails the
    transcript at the spec's horizon, or None when it passes."""
    cut = list(transcript[: spec.horizon])
    for position, scan in enumerate(H.CHECKS[spec.kind]):
        if scan(spec, cut, truth, family) is not None:
            return position
    return None


def _duel_error_lists_builders(capsys, argv, kind, family_name):
    """Run a duel that must exit 2 with one error line, and return the
    names that line lists; they are exactly the registered learners (or
    operators) that build on the family."""
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    listed = captured.err.split("%s that build on %s: " % (kind, family_name))
    names = listed[1].strip().split(", ")
    registry = H.LEARNERS if kind == "learners" else H.GAMMAS
    fam = H.get_family(family_name)
    for name in registry:
        try:
            registry[name](fam)
            builds = True
        except H.ConfigurationError:
            builds = False
        assert (name in names) == builds, name
    return names


class TestCli:
    def test_list_families(self, capsys):
        assert cli.main(["list-families"]) == 0
        out = capsys.readouterr().out
        assert "omega_pair" in out

    def test_usage_error_exit_code(self):
        assert cli.main(["run", "omega_pair", "nope", "Ex"]) == 2
        assert cli.main(["frobnicate"]) == 2

    def test_family_members_with_commas(self, capsys):
        # the family splits only at commas outside parentheses
        family = "tilde(chain(3)),du(cycle(3),iso_inf)"
        assert cli.main(["classify", family]) == 0
        assert len(H.get_family(family)) == 2
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "extra",
        [
            ["--horizon", "100", "--tail", "200", "--window", "10"],
            ["--horizon", "100", "--tail", "0", "--window", "10"],
            ["--member", "5"],
            ["--budget", "-1"],
        ],
        ids=["tail_over_horizon", "tail_below_one", "member_out_of_range",
             "budget_below_zero"],
    )
    def test_bad_run_input_exit_code(self, extra, capsys):
        assert cli.main(["run", "omega_pair", "ex_minmax", "Ex"] + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("member", ["5", "-1"])
    def test_bad_reduce_member_exit_code(self, member, capsys):
        argv = ["reduce", "gamma_erange", "tilde_chains", "--member", member]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("verify", [False, True])
    @pytest.mark.parametrize("horizon", ["-3", "0"])
    def test_bad_reduce_horizon_exit_code(self, horizon, verify, capsys):
        argv = ["reduce", "gamma_erange", "tilde_chains", "--horizon", horizon]
        assert cli.main(argv + ["--verify"] * verify) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_verify_on_finite_members_exit_code(self, capsys):
        # a finite member's stream ends before the horizon, too soon to
        # show separation; the first one is named
        argv = ["reduce", "gamma_erange", "chain(3),chain(4)", "--verify"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: member chain(3) is finite")
        assert captured.err.count("\n") == 1

    def test_duel_names_opponents_that_build(self, capsys):
        # a co-learner cannot be built on a comparable pair; the error
        # names the learners that can
        names = _duel_error_lists_builders(
            capsys, ["duel", "adv_vs_co_comparable", "co"],
            "learners", "tilde_chains",
        )
        assert "co" not in names and "nus" in names

    @pytest.mark.parametrize(
        "adversary,opponent,kind",
        [
            ("adv_vs_fin", "gamma_fin_to_eqnat", "learners"),
            ("adv_vs_total_id_operator", "fin", "operators"),
        ],
    )
    def test_duel_opponent_of_wrong_kind_exit_code(
        self, adversary, opponent, kind, capsys
    ):
        # the opponent builds on cycles, but it is not of the kind the
        # adversary plays against
        names = _duel_error_lists_builders(
            capsys, ["duel", adversary, opponent], kind, "cycles"
        )
        assert opponent not in names

    @pytest.mark.parametrize(
        "adversary,shape",
        [("adv_vs_ex_rays", "du(ray(n),iso_inf)"),
         ("adv_vs_nus_poset", "tilde(poset_p(k))")],
    )
    def test_duel_family_of_wrong_shape_exit_code(
        self, adversary, shape, capsys
    ):
        # the opponent builds on cycles, but the adversary reads its
        # stream off the members' parameters, and cycles has none
        argv = ["duel", adversary, "ex_min_embed", "--family", "cycles"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert shape in captured.err

    def test_duel_stream_past_a_finite_member_exit_code(self, capsys):
        # the adversary presents chain(2) for more stages than it has
        # elements
        argv = ["duel", "adv_vs_co_comparable", "ex_min_embed",
                "--family", "chain(2),chain(3)"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "chain(2) has only 2 elements" in captured.err

    def test_duel_pair_from_one_member_exit_code(self, capsys):
        argv = ["duel", "adv_vs_fin", "fin", "--family", "iso(3)"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "adv_vs_fin" in captured.err

    def test_every_duel_opponent_of_wrong_kind_exit_code(self, capsys):
        with pytest.raises(KeyError, match="unknown adversary"):
            H.run_duel("nope", "fin")
        for adversary, (family_name, kind, _) in H.DUELS.items():
            for other_kind, registry in H.OPPONENTS.items():
                if other_kind == kind:
                    continue
                for opponent in registry:
                    argv = ["duel", adversary, opponent]
                    assert cli.main(argv) == 2, argv
                    err = capsys.readouterr().err
                    assert err.startswith("error: ") and err.count("\n") == 1
                    assert "%s that build on %s: " % (kind, family_name) in err

    def test_run_certificate_records_seed_and_learner(self, capsys):
        argv = [
            "run", "omega_pair", "ex_minmax", "Co", "--seed", "1",
            "--member", "0", "--horizon", "40", "--tail", "10",
            "--window", "5",
        ]
        assert cli.main(argv) == 1
        line = capsys.readouterr().out
        cert = json.loads(line.split(" ", 2)[2])["certificate"]
        assert cert["seed"] == 1
        assert cert["opponent"] == "ExMinMaxLearner"

    def test_matrix_unknown_cell_key_exit_code(
        self, tmp_path, capsys, monkeypatch
    ):
        # a bad key, value type, learner, family, member, criterion or
        # budget, or a cell or cell list of the wrong type, is rejected
        # before the valid first cell runs; a learner typo is not a
        # SKIPPED cell
        ran = []
        monkeypatch.setattr(H, "run_cell", lambda *args: ran.append(args))
        config = tmp_path / "cells.json"
        cell = {"family": "omega_pair", "learner": "ex_minmax",
                "criterion": "Ex", "horizon": 128, "tail": 16, "window": 8}
        cases = [({"cells": [cell, bad]}, named) for bad, named in (
            (dict(cell, members=[0]), "'members'"),
            (dict(cell, learner="nope"), "'nope'"),
            (dict(cell, criterion="Nope"), "'Nope'"),
            (dict(cell, family="nope"), "'nope'"),
            (dict(cell, horizon="x"), "'horizon'"),
            (dict(cell, tail=True), "'tail'"),
            (dict(cell, seeds=5), "'seeds'"),
            (dict(cell, member="a"), "'member'"),
            (dict(cell, member=5), "member 5 out of range"),
            (dict(cell, learner=["x"]), "'learner'"),
            (dict(cell, criterion="AlphaFin", budget=-3), "budget >= 0"),
            (1, "1"),
        )] + [([1], "1"), ({"cells": 5}, "5")]
        for cells, named in cases:
            config.write_text(json.dumps(cells))
            assert cli.main(["matrix", str(config)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert captured.err.count("\n") == 1
            assert named in captured.err
            assert not ran

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "tilde(cycle(3))"],
            ["classify", "du(omega"],
            ["classify", "du(omega)"],
            ["run", "tilde(poset_p(1)),tilde(poset_p(2))", "ex_poset", "Ex"],
        ],
        ids=["tilde_of_graph", "unbalanced", "du_one_side", "no_infinite"],
    )
    def test_bad_structure_or_family_exit_code(self, argv, capsys):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_matrix_and_report_fail_exit_code(self, tmp_path, capsys):
        # a Co cell of ex_minmax emits the truth on both members
        config = tmp_path / "cells.json"
        cell = {"family": "omega_pair", "learner": "ex_minmax",
                "criterion": "Co", "horizon": 64, "tail": 16, "window": 8}
        config.write_text(
            json.dumps({"cells": [cell, dict(cell, criterion="Ex")]})
        )
        log = tmp_path / "runs.jsonl"
        assert cli.main(["matrix", str(config), "--out", str(log)]) == 1
        assert "FAIL (CorrectCodeEmitted)" in capsys.readouterr().out
        assert cli.main(["report", str(log)]) == 1
        assert "FAIL=2 PASS=2" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "row",
        [
            [1],
            "x",
            {"cell": {"family": "omega_pair", "learner": "ex_minmax",
                      "criterion": "Ex"},
             "member": 0, "seed": 1, "verdict": "PASS"},
            {"cell": 5, "member": 0, "seed": 1,
             "verdict": {"status": "PASS"}},
            {"cell": {"family": "a", "learner": "b", "criterion": "Ex"},
             "member": 0, "seed": 1,
             "verdict": {"status": "FAIL", "certificate": 5}},
            {"cell": {"family": "a", "learner": "b", "criterion": "Ex"},
             "verdict": {"status": "PASS"}},
            {"cell": {"family": "a", "learner": "b", "criterion": "Ex"},
             "member": 0, "seed": 1,
             "verdict": {"status": "FAIL", "certificate": {"x": 1}}},
        ],
        ids=["list", "string", "verdict_string", "cell_int",
             "certificate_int", "no_member_seed", "certificate_no_kind"],
    )
    def test_report_malformed_row_exit_code(self, row, tmp_path, capsys):
        # the bad row is the second line; a usage error, not a failed cell
        good = {"cell": {"family": "omega_pair", "learner": "ex_minmax",
                         "criterion": "Ex"},
                "member": 0, "seed": 1, "verdict": {"status": "PASS"}}
        log = tmp_path / "runs.jsonl"
        log.write_text(json.dumps(good) + "\n" + json.dumps(row) + "\n")
        assert cli.main(["report", str(log)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: %s line 2 " % log)
        assert captured.err.count("\n") == 1

    def test_classify_command(self, capsys):
        assert cli.main(["classify", "cycles"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["level"] == "StrongAntichain"

    def test_run_command(self, capsys):
        code = cli.main(
            [
                "run", "omega_pair", "ex_minmax", "Ex",
                "--horizon", "128", "--tail", "16", "--window", "8",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.count("PASS") == 2

    def test_reduce_verify_command(self, capsys):
        code = cli.main(
            ["reduce", "gamma_erange", "tilde_chains", "--verify"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["passed"]

    def test_reduce_command(self, capsys):
        argv = ["reduce", "gamma_fin_to_eqnat", "cycles", "--horizon", "12"]
        assert cli.main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"relation": "eqnat", "values": [0] * 12}

    def test_reduce_missing_witness_exit_code(self, capsys):
        # witness bound 8 leaves the pair (7, 6) of padded_chains open
        assert cli.main(["reduce", "gamma_erange", "padded_chains"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: missing witness for pair (7,6)\n"

    def test_duel_command(self, capsys):
        assert cli.main(["duel", "adv_vs_nus_poset", "ex_poset"]) == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert["kind"] == "AbandonReturn"

    def test_matrix_and_report(self, tmp_path, capsys):
        config = tmp_path / "cells.json"
        config.write_text(
            json.dumps(
                {
                    "cells": [
                        {
                            "family": "omega_pair",
                            "learner": "ex_minmax",
                            "criterion": "Ex",
                            "horizon": 128,
                            "tail": 16,
                            "window": 8,
                        }
                    ]
                }
            )
        )
        log = tmp_path / "runs.jsonl"
        assert cli.main(["matrix", str(config), "--out", str(log)]) == 0
        capsys.readouterr()
        assert cli.main(["report", str(log)]) == 0
        out = capsys.readouterr().out
        assert "PASS=2" in out
