"""Scenario files, report round-trips, CLI determinism and exit codes."""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from htlc_arena.core import ScenarioError
from htlc_arena.runner import Report, load_scenario, main, ttc

from conftest import demba_scenario, he_scenario, monte_carlo, naive_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def write_doc(tmp_path, doc, name="scen.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def minimal_naive(**overrides):
    doc = {"protocol": "naive", "amounts": {"v_dep": 100},
           "timing": {"T": 5}, "miners": [{"id": "m1", "power": 1}]}
    doc.update(overrides)
    return doc


class TestLoadScenario:
    def test_minimal_config_fills_defaults(self, tmp_path):
        scen, profile = load_scenario(write_doc(tmp_path, minimal_naive()))
        assert scen.capacity == 8
        assert scen.horizon == scen.T + 2
        assert profile.alice.name.startswith("honest")
        assert profile.bob.name.startswith("honest")

    def test_power_sum_violation(self, tmp_path):
        doc = minimal_naive(miners=[{"id": "m1", "power": "9/10"}])
        with pytest.raises(ScenarioError) as e:
            load_scenario(write_doc(tmp_path, doc))
        assert "power-sum" in str(e.value)

    def test_demba_fee_ordering_violation(self, tmp_path):
        doc = {"protocol": "demba",
               "amounts": {"v_dep": 100, "v_col_a": 50, "v_col_b": 40,
                           "v_ded": 7},
               "fees": {"schedule": {"paid": {"pre_A": 3, "pre_A'": 3,
                                              "pre_AA'": 5, "pre_B": 2},
                                     "alpha": "1/2"}},
               "timing": {"T": 4}, "miners": [{"id": "m1", "power": 1}]}
        with pytest.raises(ScenarioError) as e:
            load_scenario(write_doc(tmp_path, doc))
        assert "Eq.1" in str(e.value)

    def test_parse_error_carries_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"protocol\": naive\n}", encoding="utf-8")
        with pytest.raises(ScenarioError) as e:
            load_scenario(path)
        assert "parse-error(line 2" in str(e.value)

    def test_rational_powers_are_exact(self, tmp_path):
        doc = minimal_naive(miners=[{"id": "a", "power": "1/3"},
                                    {"id": "b", "power": "1/3"},
                                    {"id": "c", "power": "1/3"}])
        scen, _ = load_scenario(write_doc(tmp_path, doc))
        assert sum((m.power for m in scen.miners), Fraction(0)) == 1

    def test_policy_names_resolve(self, tmp_path):
        doc = minimal_naive(policies={
            "alice": {"name": "honest", "t_pub": 2},
            "bob": {"name": "naive-briber", "br": 3},
            "miners": {"default": {"name": "censor-related"}}})
        doc["bribes"] = {"br": 3}
        _, profile = load_scenario(write_doc(tmp_path, doc))
        assert profile.bob.name == "naive-briber(br=3)"


class TestReport:
    def test_round_trip_reproduces_records_exactly(self):
        rep = Report({"subcommand": "expect", "seed": 9})
        rep.add("utility", "alice", Fraction(97, 1))
        rep.add("utility", "bob", Fraction(-1, 3))
        rep.add("ttc-mean-rounds", "-", 5.25, 5.1, 5.4)
        rep.add("verdict", "-", "strict")
        rep.summary.append("two lines")
        rep.summary.append("of prose")
        parsed = Report.parse(rep.render())
        assert parsed.records == rep.records
        assert parsed.header["subcommand"] == "expect"
        assert parsed.summary == rep.summary

    def test_fraction_formatting(self):
        rep = Report({})
        rep.add("x", "-", Fraction(1, 2))
        assert rep.records[0][2] == "1/2"

    def test_malformed_record_rejected(self):
        with pytest.raises(ScenarioError):
            Report.parse("too\tfew\tcolumns\n")


class TestCli:
    def run(self, capsys, *argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out

    def test_simulate_deterministic_output(self, capsys):
        path = str(SCENARIOS / "naive_bribery.json")
        code1, out1 = self.run(capsys, "simulate", "--scenario", path,
                               "--seed", "3")
        code2, out2 = self.run(capsys, "simulate", "--scenario", path,
                               "--seed", "3")
        assert code1 == code2 == 0
        assert out1 == out2
        assert "utility\tbob\t88" in out1

    def test_expect_prints_rationals(self, capsys):
        code, out = self.run(capsys, "expect", "--scenario",
                             str(SCENARIOS / "he_m2mba.json"))
        assert code == 0
        utility_rows = [l for l in out.splitlines()
                        if l.startswith("utility\t")]
        assert utility_rows
        assert all("/" in row.split("\t")[2] for row in utility_rows)

    def test_lemmas_exit_zero_on_consistent_scenario(self, capsys):
        code, out = self.run(capsys, "lemmas", "--scenario",
                             str(SCENARIOS / "demba_honest.json"))
        assert code == 0
        assert "lemma6\t-\tconsistent=true" in out

    def test_lemmas_exit_two_on_failed_theorem(self, capsys, tmp_path):
        doc = {"protocol": "demba",
               "amounts": {"v_dep": 100, "v_col_a": 50, "v_col_b": 40,
                           "v_ded": 7},
               "fees": {"f": 0,
                        "schedule": {"paid": {"pre_A": 8, "pre_A'": 12,
                                              "pre_AA'": 20, "pre_B": 8},
                                     "alpha": 1}},
               "timing": {"T": 4, "horizon": 8},
               "miners": [{"id": "m1", "power": 1}]}
        path = write_doc(tmp_path, doc)
        code, out = self.run(capsys, "lemmas", "--scenario", str(path))
        assert code == 2
        assert "not-dominant" in out

    def test_validation_error_exits_one(self, capsys, tmp_path):
        doc = minimal_naive(miners=[{"id": "m1", "power": "1/2"}])
        path = write_doc(tmp_path, doc)
        code = main(["simulate", "--scenario", str(path)])
        assert code == 1

    def test_expect_mc_reports_the_requested_seed(self, capsys):
        path = str(SCENARIOS / "he_m2mba.json")
        rows = {}
        for seed in (1, 2):
            code, out = self.run(capsys, "expect", "--scenario", path,
                                 "--mode", "mc", "--trials", "50",
                                 "--seed", str(seed))
            assert code == 0
            assert f"# seed: {seed}\n" in out
            rows[seed] = [l for l in out.splitlines()
                          if l.startswith("utility\t")]
        assert rows[1] and rows[1] != rows[2]

    def test_pool_zero_fee_ratio_record(self, capsys):
        code, out = self.run(capsys, "pool", "--pool-fee", "0")
        assert code == 0
        assert "ratio\t-\t1/1" in out

    def test_dominance_subcommand(self, capsys):
        code, out = self.run(capsys, "dominance", "--scenario",
                             str(SCENARIOS / "naive_bribery.json"),
                             "--player", "bob")
        assert code == 0
        assert "dominance\tbob\t" in out

    def test_out_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.tsv"
        code = main(["pool", "--pool-fee", "0", "--out", str(target)])
        assert code == 0
        parsed = Report.parse(target.read_text(encoding="utf-8"))
        assert any(r[0] == "ratio" for r in parsed.records)


# case -> (scenario document, the field its error line names)
MALFORMED = {
    "T-not-an-int": (minimal_naive(timing={"T": "x"}), "T"),
    "top-level-array": ([minimal_naive()], "document"),
    "unknown-policy-name": (
        minimal_naive(policies={"bob": {"name": "nope"}}), "policies.bob"),
    "unknown-policy-key": (minimal_naive(
        protocol="mad", amounts={"v_dep": 100, "v_col": 50},
        policies={"bob": {"name": "hydra-briber", "foo": 1}}), "policies.bob"),
    "hydra-briber-epsilon": (minimal_naive(
        protocol="mad", amounts={"v_dep": 100, "v_col": 50},
        policies={"bob": {"name": "hydra-briber", "epsilon": 5}}),
        "policies.bob"),
    "naive-zero-deposit": (minimal_naive(amounts={"v_dep": 0}), "v_dep"),
    "he-zero-collateral": (minimal_naive(
        protocol="he", amounts={"v_dep": 100, "v_col": 0}), "v_col"),
    "mc-zero-trials": (minimal_naive(mode={"monte-carlo": 0}), "mode"),
    "miners-not-a-list": (
        minimal_naive(miners={"id": "m1", "power": 1}), "miners"),
    "v_dep-float": (minimal_naive(amounts={"v_dep": 100.9}), "v_dep"),
    "T-numeric-string": (minimal_naive(timing={"T": "5"}), "T"),
    "f-negative": (minimal_naive(fees={"f": -1}), "f"),
    "capacity-bool": (minimal_naive(capacity=True), "capacity"),
    "capacity-negative": (minimal_naive(capacity=-1), "capacity"),
    "seed-negative": (minimal_naive(seed=-1), "seed"),
    "miner-kind-typo": (minimal_naive(
        miners=[{"id": "m1", "power": 1, "kind": "pasive"}]), "kind"),
    "colluding-string": (minimal_naive(
        miners=[{"id": "m1", "power": 1, "colluding": "no"}]), "colluding"),
    "duplicate-miner-id": (minimal_naive(
        miners=[{"id": "m1", "power": "1/2"}, {"id": "m1", "power": "1/2"}]),
        "miners"),
    "miner-id-int": (minimal_naive(miners=[{"id": 7, "power": 1}]), "id"),
    "miner-id-line-break": (minimal_naive(
        miners=[{"id": "m\n1", "power": 1}],
        policies={"miners": {"m\n1": {"name": "nope"}}}), "id"),
    "miner-power-negative": (minimal_naive(
        miners=[{"id": "m1", "power": 2}, {"id": "m2", "power": -1}]),
        "power"),
    "policy-param-type": (minimal_naive(
        policies={"alice": {"name": "honest", "t_pub": "x"}}),
        "policies.alice"),
    "mc-trials-string": (minimal_naive(mode={"monte-carlo": "5"}), "mode"),
    # A key that no section knows, typically a misspelt one.
    "top-level-unknown-key": (minimal_naive(bribe={"br": 2}), "bribe"),
    "amounts-unknown-key": (
        minimal_naive(amounts={"v_dep": 100, "v_coll": 5}), "amounts.v_coll"),
    "fees-unknown-key": (minimal_naive(fees={"f_dep": 3}), "fees.f_dep"),
    "timing-unknown-key": (minimal_naive(
        timing={"T": 5, "t_pub": 1, "tpub": 4}), "timing.tpub"),
    "bribes-unknown-key": (minimal_naive(bribes={"bribe": 2}), "bribes.bribe"),
    "mode-unknown-key": (minimal_naive(
        mode={"monte-carlo": 5, "trials": 900}), "mode.trials"),
    "miner-unknown-key": (minimal_naive(
        miners=[{"id": "m1", "power": 1, "colluding": False, "kinds": "x"}]),
        "miners[0].kinds"),
    "schedule-unknown-key": (minimal_naive(fees={"schedule": {
        "paid": {"pre_A": 8, "pre_A'": 12, "pre_AA'": 20, "pre_B": 8},
        "alfa": "1/2"}}), "fees.schedule.alfa"),
    "schedule-paid-unknown-key": (minimal_naive(fees={"schedule": {"paid": {
        "pre_A": 8, "pre_A'": 12, "pre_AA'": 20, "pre_B": 8, "pre_C": 1}}}),
        "fees.schedule.paid.pre_C"),
    "policies-unknown-key": (minimal_naive(
        policies={"alcie": {"name": "honest"}}), "policies.alcie"),
    "policies-unknown-miner": (minimal_naive(
        policies={"miners": {"m2": {"name": "censor-related"}}}),
        "policies.miners.m2"),
    "censor-related-until": (minimal_naive(
        policies={"miners": {"m1": {"name": "censor-related", "until": 3}}}),
        "policies.miners.m1"),
    "policy-key-with-line-break": (minimal_naive(
        policies={"alice": {"name": "honest", "\r": -1}}), "policies.alice"),
    "demba-paid-ordering": (minimal_naive(
        protocol="demba",
        amounts={"v_dep": 100, "v_col_a": 50, "v_col_b": 40, "v_ded": 7},
        fees={"schedule": {"paid": {"pre_A": 3, "pre_A'": 3, "pre_AA'": 5,
                                    "pre_B": 2}}}), "fee_schedule"),
    "naive-with-fee-schedule": (minimal_naive(
        fees={"schedule": {"paid": {"pre_A": 9, "pre_A'": 3, "pre_AA'": 1,
                                    "pre_B": 2}, "alpha": "7/2"}}),
        "fee_schedule"),
}

NAIVE = ["--scenario", str(SCENARIOS / "naive_bribery.json")]
DEMBA = ["--scenario", str(SCENARIOS / "demba_honest.json")]

# case -> (argv that runs cleanly but for one option, the field its error
# names)
BAD_OVERRIDES = {
    "expect-negative-trials": (["expect", *NAIVE, "--trials", "-3"], "trials"),
    "expect-mc-zero-trials": (
        ["expect", *NAIVE, "--mode", "mc", "--trials", "0"], "trials"),
    "expect-exact-negative-trials": (
        ["expect", *NAIVE, "--mode", "exact", "--trials", "-3"], "trials"),
    "ttc-zero-trials": (
        ["ttc", *NAIVE, "--path", "alice-redeems", "--trials", "0"], "trials"),
    "simulate-negative-seed": (["simulate", *NAIVE, "--seed", "-1"], "seed"),
    "lemmas-negative-seed": (["lemmas", *DEMBA, "--seed", "-1"], "seed"),
    "dominance-negative-seed": (
        ["dominance", *NAIVE, "--player", "bob", "--seed", "-1"], "seed"),
    "pool-negative-seed": (["pool", "--trials", "5", "--seed", "-1"], "seed"),
    "pool-zero-trials": (["pool", "--trials", "0"], "trials"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED) + sorted(BAD_OVERRIDES) + [
    "not-utf8", "scenario-is-a-directory", "out-is-a-directory"])
def test_bad_input_exits_one_with_one_error_line(case, tmp_path, capsys):
    argv = ["simulate", "--scenario", str(tmp_path / "scen.json")]
    field = None
    if case in MALFORMED:
        doc, field = MALFORMED[case]
        write_doc(tmp_path, doc)
    elif case in BAD_OVERRIDES:
        argv, field = BAD_OVERRIDES[case]
    elif case == "not-utf8":
        (tmp_path / "scen.json").write_bytes(b"\xff\xfe{}")
    elif case == "scenario-is-a-directory":
        argv[-1] = str(tmp_path)
    else:
        argv = ["pool", "--out", str(tmp_path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    if field is not None:
        assert lines[0].startswith(f"error: validation-error({field}): "), \
            lines[0]


def _nodes(node, path=()):
    """Every (path, value) in a JSON document, sections and leaves alike."""
    if path:
        yield path, node
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _nodes(child, path + (key,))


SAMPLE_NAMES = sorted(p.name for p in SCENARIOS.glob("*.json"))
WRONG_VALUES = st.one_of(
    st.integers(max_value=-1), st.floats(), st.booleans(), st.none(),
    st.text(max_size=6), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


@st.composite
def mutated_samples(draw):
    """A sample scenario with one to three values replaced by wrong ones and
    up to two keys, known or not, added to its sections."""
    doc = json.loads((SCENARIOS / draw(st.sampled_from(SAMPLE_NAMES)))
                     .read_text(encoding="utf-8"))
    for _ in range(draw(st.integers(1, 3))):
        # Paths are drawn afresh: an earlier mutation may have removed some.
        path, _ = draw(st.sampled_from(list(_nodes(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = draw(WRONG_VALUES)
    sections = [doc] + [node for _, node in _nodes(doc)
                        if isinstance(node, dict)]
    for _ in range(draw(st.integers(0, 2))):
        section = draw(st.sampled_from(sections))
        section[draw(st.text(max_size=6))] = draw(WRONG_VALUES)
    return doc


@settings(max_examples=150, deadline=None)
@given(doc=mutated_samples())
def test_mutated_sample_scenario_fails_cleanly(tmp_path_factory, doc):
    scen = tmp_path_factory.getbasetemp() / "mutated.json"
    scen.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["simulate", "--scenario", str(scen)])
    assert code in (0, 1)
    if code == 1:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert err.getvalue() == ""


class TestTtc:
    def test_demba_invariant_to_deposit_size(self):
        a = ttc(monte_carlo(demba_scenario(v_dep=100), 64, seed=1), "bob-both")
        b = ttc(monte_carlo(demba_scenario(v_dep=200), 64, seed=1), "bob-both")
        assert a["mean"] == b["mean"]

    def test_he_refund_delay_follows_kappa(self):
        # l = ceil(v_dep/(v_col - f) + 1) lifts the combined-refund time.
        lo = he_scenario(v_dep=10, v_col=10, l=0, f=0, T=3)
        hi = he_scenario(v_dep=40, v_col=10, l=0, f=0, T=3)
        a = ttc(monte_carlo(lo, 32, seed=2), "bob-both")
        b = ttc(monte_carlo(hi, 32, seed=2), "bob-both")
        assert lo.l == 2 and hi.l == 5
        assert b["mean"] - a["mean"] == hi.l - lo.l

    def test_he_payee_redemption_independent_of_deposit(self):
        a = ttc(monte_carlo(he_scenario(v_dep=10, v_col=10, l=0, f=0, T=3),
                            32, seed=3), "alice-redeems")
        b = ttc(monte_carlo(he_scenario(v_dep=40, v_col=10, l=0, f=0, T=3),
                            32, seed=3), "alice-redeems")
        assert a["mean"] == b["mean"]

    def test_bad_path_rejected(self):
        with pytest.raises(ScenarioError):
            ttc(monte_carlo(demba_scenario(), 1, seed=0), "sideways")

    def test_naive_has_no_collateral_path(self):
        with pytest.raises(ScenarioError, match="naive has no collateral"):
            ttc(monte_carlo(naive_scenario(), 1, seed=0), "bob-collateral")

    def test_exact_mode_scenario_is_rejected(self):
        with pytest.raises(ScenarioError, match=r"^validation-error\(mode\)"):
            ttc(demba_scenario(), "bob-both")

    def test_path_that_never_completes_is_one_error_line(self, capsys):
        # A censoring miner keeps Bob's refund out of every block.
        path = str(SCENARIOS / "naive_bribery.json")
        scen, _ = load_scenario(path)
        with pytest.raises(ScenarioError, match="^validation-error: bob-both "
                           "never completed within the horizon$"):
            ttc(monte_carlo(scen, 5), "bob-both")
        code = main(["ttc", "--scenario", path, "--path", "bob-both",
                     "--trials", "5"])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err == ("error: validation-error: bob-both never completed "
                       "within the horizon\n")
