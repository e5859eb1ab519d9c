"""Scenario files, report round-trips, CLI determinism and exit codes."""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout, suppress
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from htlc_arena import runner
from htlc_arena.core import MAX_DRAW_ITEMS, ScenarioError
from htlc_arena.runner import Report, load_scenario, main, ttc

from conftest import (demba_scenario, he_scenario, mad_scenario, monte_carlo,
                      naive_scenario)

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


def he_sample(**sections):
    """The he sample scenario with whole sections replaced."""
    doc = json.loads((SCENARIOS / "he_m2mba.json").read_text(encoding="utf-8"))
    doc.update(sections)
    return doc


def demba_sample(**sections):
    """The one-miner demba sample scenario with whole sections replaced."""
    doc = json.loads((SCENARIOS / "demba_honest.json").read_text(
        encoding="utf-8"))
    doc.update(sections)
    return doc


def loads(module: str, *argv, code: int = 0) -> bool:
    """Whether a fresh interpreter that imports the engine and, given an
    argv, runs `arena argv` to exit code `code` has loaded `module`."""
    script = ("import sys\n"
              "import htlc_arena, htlc_arena.analysis\n"
              "from htlc_arena.runner import main\n"
              "module, code, argv = sys.argv[1], int(sys.argv[2]), "
              "sys.argv[3:]\n"
              "assert not argv or main(argv) == code\n"
              "print(module in sys.modules)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    run = subprocess.run([sys.executable, "-c", script, module, str(code),
                          *argv], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    return {"True": True, "False": False}[run.stdout.splitlines()[-1]]


class TestLoadScenario:
    def test_minimal_config_fills_defaults(self, tmp_path):
        scen, profile = load_scenario(write_doc(tmp_path, minimal_naive()))
        assert scen.capacity == 8
        assert scen.horizon == scen.T + 2
        assert profile.alice.name.startswith("honest")
        assert profile.bob.name.startswith("honest")

    def test_only_an_absent_miners_key_takes_the_default(self, tmp_path):
        doc = minimal_naive()
        del doc["miners"]
        scen, _ = load_scenario(write_doc(tmp_path, doc))
        assert [(m.party.id, m.power) for m in scen.miners] == [("m1", 1)]

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

    @pytest.mark.parametrize("argv", [
        ["simulate"], ["expect"], ["dominance", "--player", "m1"],
        ["lemmas"], ["ttc", "--path", "alice-redeems", "--trials", "5"]],
        ids=lambda argv: argv[0])
    def test_digest_names_the_bytes_parsed(self, tmp_path, monkeypatch,
                                           capsys, argv):
        # The file changes once the job has parsed it: the report's digest
        # still names the bytes the job read.
        path = tmp_path / "scen.json"
        original = (SCENARIOS / "he_m2mba.json").read_bytes()
        path.write_bytes(original)
        load = runner.load_scenario

        def load_then_edit(*args):
            loaded = load(*args)
            path.write_bytes(original + b"\n")
            return loaded

        monkeypatch.setattr(runner, "load_scenario", load_then_edit)
        assert main([argv[0], "--scenario", str(path), *argv[1:]]) == 0
        header = Report.parse(capsys.readouterr().out).header
        assert header["scenario-digest"] == \
            hashlib.sha256(original).hexdigest()[:16]

    @pytest.mark.parametrize("name,loaded", [("naive_bribery.json", False),
                                             ("he_m2mba.json", True)])
    def test_simulate_draws_only_where_two_miners_can_mine(self, tmp_path,
                                                           name, loaded):
        # A one-miner simulate gives its miner every round, as every draw
        # would, without loading numpy's random module; a three-miner one
        # draws, which shows the check can see the load.
        assert loads(
            "numpy.random", "simulate", "--scenario", str(SCENARIOS / name),
            "--out", str(tmp_path / "report.tsv")) is loaded

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

    @pytest.mark.parametrize("argv", [
        ("pool", "--pool-fee", "0", "--pool-size", "1"),  # a pool that is solo
        ("pool", "--lambda-net", "0")])
    def test_pool_prints_a_zero_delta_unsigned(self, capsys, argv):
        # Both figures are a negative float zero before they are printed.
        code, out = self.run(capsys, *argv)
        assert code == 0
        assert "delta_U\t-\t0.0\t" in out and "-0.0" not in out

    def test_dominance_subcommand(self, capsys):
        code, out = self.run(capsys, "dominance", "--scenario",
                             str(SCENARIOS / "naive_bribery.json"),
                             "--player", "bob")
        assert code == 0
        assert "dominance\tbob\t" in out

    @pytest.mark.parametrize("protocol,records", [
        ("naive", [("dominance", "none"),
                   ("candidate", "naive-briber(br=scenario)"),
                   ("witness-alternative", "honest(reveal=1)"),
                   ("witness-candidate-utility", "88"),
                   ("witness-alternative-utility", "99")]),
        ("mad", [("dominance", "none"),
                 ("candidate", "naive-briber(br=scenario)"),
                 ("witness-alternative", "honest(reveal=1)"),
                 ("witness-candidate-utility", "337/32"),
                 ("witness-alternative-utility", "241/4")]),
        ("he", None)])
    def test_dominance_weighs_only_policies_valid_for_the_protocol(
            self, tmp_path, capsys, protocol, records):
        # Bob's naive briber is valid on naive and mad alone; on he no
        # alternative to honest Bob is left, and the one error line says so.
        if protocol == "naive":
            path = SCENARIOS / "naive_bribery.json"
        elif protocol == "he":
            path = SCENARIOS / "he_m2mba.json"
        else:
            path = write_doc(tmp_path, minimal_naive(
                protocol="mad", amounts={"v_dep": 100, "v_col": 50},
                timing={"T": 3}, bribes={"br": 2},
                miners=[{"id": "m1", "power": "1/2"},
                        {"id": "m2", "power": "1/2"}],
                policies={"bob": {"name": "naive-briber"},
                          "miners": {"m1": {"name": "censor-related"}}}))
        code = main(["dominance", "--scenario", str(path), "--player", "bob"])
        captured = capsys.readouterr()
        if records is None:
            assert (code, captured.out) == (1, "")
            assert captured.err == (
                "error: validation-error(player): no policy for bob besides "
                "'honest(reveal=1)' is valid for protocol 'he'\n")
        else:
            assert code == 0
            assert [(rec[0], rec[2]) for rec in
                    Report.parse(captured.out).records] == records

    def test_dominance_tells_policies_apart_by_their_parameters(
            self, tmp_path, capsys):
        # A racer that defers its confiscation shares its display role with
        # the default racer, which must still compete, and wins against it.
        doc = he_sample()
        doc["policies"]["miners"]["m1"] = {"name": "m2mba-active",
                                           "defer_to": 6}
        path = write_doc(tmp_path, doc)
        code = main(["dominance", "--scenario", str(path), "--player", "m1"])
        assert code == 0
        assert [(rec[0], rec[2]) for rec in
                Report.parse(capsys.readouterr().out).records] == [
            ("dominance", "none"),
            ("candidate", "m2mba-active(race,defer_to=6)"),
            ("witness-alternative", "m2mba-active(race)"),
            ("witness-candidate-utility", "15"),
            ("witness-alternative-utility", "100")]

    def test_out_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.tsv"
        code = main(["pool", "--pool-fee", "0", "--out", str(target)])
        assert code == 0
        parsed = Report.parse(target.read_text(encoding="utf-8"))
        assert any(r[0] == "ratio" for r in parsed.records)


# case -> (scenario document, the field its error line names)
MALFORMED = {
    "T-not-an-int": (minimal_naive(timing={"T": "x"}), "T"),
    "unknown-protocol": (minimal_naive(protocol="htlc"), "protocol"),
    "protocol-not-a-string": (minimal_naive(protocol=["naive"]), "protocol"),
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
    # Only an absent `miners` key takes the default miner.
    "miners-empty": (minimal_naive(miners=[]), "miners"),
    "miners-null": (minimal_naive(miners=None), "miners"),
    "miner-power-bool": (
        minimal_naive(miners=[{"id": "m1", "power": True}]), "miners[0].power"),
    "miner-power-bool-pair": (minimal_naive(
        miners=[{"id": "m1", "power": [True, 1]}]), "miners[0].power"),
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
    # Refused before `Fraction` expands the exponent, which takes seconds.
    "miner-power-huge-exponent": (minimal_naive(
        miners=[{"id": "m1", "power": "1e10000000"}]), "miners[0].power"),
    # The pair form [p, q] of a power with q = 0.
    "miner-power-zero-denominator": (minimal_naive(
        miners=[{"id": "m1", "power": [1, 0]}]), "miners[0].power"),
    "miner-power-negative": (minimal_naive(
        miners=[{"id": "m1", "power": 2}, {"id": "m2", "power": -1}]),
        "power"),
    "policy-param-type": (minimal_naive(
        policies={"alice": {"name": "honest", "t_pub": "x"}}),
        "policies.alice"),
    # A negative amount would pay the wrong way or drive a balance below 0.
    "sdrba-briber-negative-epsilon": (minimal_naive(
        protocol="mad", amounts={"v_dep": 100, "v_col": 50},
        policies={"miners": {"m1": {"name": "sdrba-briber",
                                    "epsilon": -1000000}}}),
        "policies.miners.m1"),
    "naive-briber-negative-br": (minimal_naive(
        policies={"bob": {"name": "naive-briber", "br": -3}}), "policies.bob"),
    "naive-briber-negative-budget": (minimal_naive(
        policies={"bob": {"name": "naive-briber", "budget": -3}}),
        "policies.bob"),
    "mc-trials-string": (minimal_naive(mode={"monte-carlo": "5"}), "mode"),
    # A schedule of the horizon's length, one miner's or drawn, that
    # cannot be allocated; past a draw's most items, none is tried.
    "horizon-schedule-does-not-fit": (minimal_naive(
        timing={"T": 5, "horizon": 10**12}), "horizon"),
    "horizon-draw-does-not-fit": (minimal_naive(
        timing={"T": 5, "horizon": 10**12},
        miners=[{"id": "m1", "power": "1/2"}, {"id": "m2", "power": "1/2"}]),
        "horizon"),
    "horizon-past-any-draw": (minimal_naive(
        timing={"T": 5, "horizon": 2**63}), "horizon"),
    # A key that no section knows, typically a misspelt one.
    "top-level-unknown-key": (minimal_naive(bribe={"br": 2}), "bribe"),
    "amounts-unknown-key": (
        minimal_naive(amounts={"v_dep": 100, "v_coll": 5}), "amounts.v_coll"),
    "fees-unknown-key": (minimal_naive(fees={"f_dep": 3}), "fees.f_dep"),
    # A fee that no step charged; the key is gone with the field.
    "fees-f-calice-a": (minimal_naive(fees={"f_calice_a": 1}),
                        "fees.f_calice_a"),
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
    "m2mba-active-unknown-role": (minimal_naive(
        protocol="he", amounts={"v_dep": 100, "v_col": 50},
        miners=[{"id": "m1", "power": 1, "kind": "active", "colluding": True}],
        policies={"miners": {"m1": {"name": "m2mba-active",
                                    "role": "bogus"}}}),
        "policies.miners.m1"),
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
    # The contract check refuses a missing paid fee.
    "demba-paid-missing-pre-B": (minimal_naive(
        protocol="demba",
        amounts={"v_dep": 100, "v_col_a": 50, "v_col_b": 40, "v_ded": 7},
        fees={"schedule": {"paid": {"pre_A": 8, "pre_A'": 12,
                                    "pre_AA'": 20}}}), "fee_schedule"),
    "naive-with-fee-schedule": (minimal_naive(
        fees={"schedule": {"paid": {"pre_A": 9, "pre_A'": 3, "pre_AA'": 1,
                                    "pre_B": 2}, "alpha": "7/2"}}),
        "fee_schedule"),
}

NAIVE = ["--scenario", str(SCENARIOS / "naive_bribery.json")]
DEMBA = ["--scenario", str(SCENARIOS / "demba_honest.json")]

# case -> (argv that runs cleanly but for one option, the field its error
# names, or None for a usage error)
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
    # 10^12 trials fail at allocation, before any memory is taken.
    "ttc-huge-trials": (
        ["ttc", "--scenario", str(SCENARIOS / "he_m2mba.json"), "--path",
         "alice-redeems", "--trials", str(10 ** 12)], "trials"),
    "expect-mc-huge-trials": (
        ["expect", *NAIVE, "--mode", "mc", "--trials", str(10 ** 12)],
        "trials"),
    "pool-huge-trials": (["pool", "--trials", str(10 ** 12)], "trials"),
    # Past what numpy can address, where it would name no field.
    "pool-2^62-trials": (["pool", "--trials", str(2 ** 62)], "trials"),
    "pool-2^63-trials": (["pool", "--trials", str(2 ** 63)], "trials"),
    # The parser's own errors: one line and exit 1 too, not its usage text
    # and exit 2, which means a failed verdict.
    "expect-trials-not-an-int": (["expect", *NAIVE, "--trials", "1e3"], None),
    "ttc-missing-path": (["ttc", *NAIVE], None),
    "unknown-subcommand": (["verify", *NAIVE], None),
    "stray-argument-with-line-break": (["pool", "a\nb"], None),
    # Past 2^63 trials numpy cannot even address the draw.
    "ttc-overflow-trials": (
        ["ttc", *DEMBA, "--path", "alice-redeems", "--trials",
         "999999999999999999999"], "trials"),
    "expect-mc-overflow-trials": (
        ["expect", *DEMBA, "--mode", "mc", "--trials",
         "999999999999999999999"], "trials"),
    "pool-negative-lambda": (
        ["pool", "--lambda-net", "-5", "--trials", "10"], "lambda_net"),
    "pool-negative-reward": (["pool", "--reward", "-1"], "R"),
    "pool-negative-alpha-risk": (["pool", "--alpha-risk", "-1000"],
                                 "alpha_risk"),
    "pool-nan-alpha-risk": (["pool", "--alpha-risk", "nan"], "alpha_risk"),
    # Finite, but too large for any risk-utility term to have a value.
    "pool-huge-alpha-risk": (["pool", "--alpha-risk", "1e300"], "alpha_risk"),
    # A reward too large for a float overflows the moments.
    "pool-huge-reward": (["pool", "--reward", "1e400", "--trials", "3"],
                         "pool"),
    # Refused before `Fraction` expands the exponent, which takes seconds.
    "pool-huge-exponent-reward": (["pool", "--reward", "1e10000000"], "R"),
    # An exact figure with more digits than an int may print.
    "pool-figure-past-the-digit-limit": (
        ["pool", "--hash", "1e-999", "--network-hash", "1e999",
         "--lambda-net", "1e-999", "--reward", "1e-999"], "pool"),
}

# case -> (subcommand and options, scenario document, the field its error
# line names): an option replaces an invalid file value, which is still
# rejected
SHADOWED = {
    "ttc-trials-over-mc-zero-trials": (
        ["ttc", "--path", "alice-redeems", "--trials", "5"],
        minimal_naive(mode={"monte-carlo": 0}), "mode"),
    "expect-exact-over-mc-zero-trials": (
        ["expect", "--mode", "exact"], minimal_naive(mode={"monte-carlo": 0}),
        "mode"),
    "seed-over-negative-seed": (
        ["simulate", "--seed", "3"], minimal_naive(seed=-1), "seed"),
}


#: One-miner jobs at a horizon whose per-round lists cannot be allocated,
#: or past a draw's most items: each refuses it before it iterates a
#: round.  case -> (subcommand and options, document, field).
HUGE_HORIZONS = {
    f"{job[0]}{'-mc' if '--mode' in job else ''}-horizon-{size}": (
        job, (demba_sample if job[0] == "lemmas" else minimal_naive)(
            timing={"T": 4, "t_pub": 1, "horizon": horizon}), "horizon")
    for job in (["expect"], ["expect", "--mode", "mc", "--trials", "1"],
                ["dominance", "--player", "alice"], ["lemmas"])
    for size, horizon in (("does-not-fit", 10**12),
                          ("past-any-draw", 2**63))}

# case -> (subcommand, a valid scenario document it cannot check, the
# field its error line names)
CANNOT_CHECK = {
    # Only he and demba have lemmas and a theorem to verify.
    **{f"lemmas-on-{protocol}": (["lemmas"], minimal_naive(
        protocol=protocol, amounts={"v_dep": 100, "v_col": 50}), "protocol")
       for protocol in ("naive", "mad")},
    # Lemma 5 spreads its bribe over the T - t_pub censored blocks.
    "lemmas-t_pub-at-T": (["lemmas"], he_sample(
        timing={"T": 3, "t_pub": 3, "l": 1}), "t_pub"),
    # Lemma 5's bribe scales with the coalition's power over the focal
    # colluder's, the first active one.
    "lemmas-zero-power-focal-colluder": (["lemmas"], he_sample(miners=[
        {"id": "m1", "power": 0, "kind": "active", "colluding": True},
        {"id": "m2", "power": "4/5", "kind": "active", "colluding": True},
        {"id": "m3", "power": "1/5", "kind": "passive"}]), "power"),
    # Lemmas 1, 2 and 4 take the focal colluder's share of the coalition.
    "lemmas-powerless-coalition": (["lemmas"], he_sample(miners=[
        {"id": "m1", "power": 0, "kind": "active", "colluding": True},
        {"id": "m2", "power": 0, "kind": "active", "colluding": True},
        {"id": "m3", "power": 1, "kind": "passive"}]), "power"),
    # Lemma 1's bribe is paid by the rest of the coalition, which has no
    # power when the focal colluder holds all of the coalition's.
    "lemmas-lone-colluder": (["lemmas"], he_sample(miners=[
        {"id": "m1", "power": "3/5", "kind": "active", "colluding": True},
        {"id": "m2", "power": 0, "kind": "active", "colluding": True},
        {"id": "m3", "power": "2/5", "kind": "passive"}]), "power"),
    # `ttc`'s pinned schedule of the horizon's length cannot be
    # allocated; past a draw's most items, none is tried.  Both come
    # before the trial count's check, which one trial passes.
    "ttc-horizon-schedule-does-not-fit": (
        ["ttc", "--path", "alice-redeems", "--trials", "1"],
        he_sample(timing={"T": 3, "t_pub": 1, "l": 1, "horizon": 10**12}),
        "horizon"),
    "ttc-horizon-past-any-draw": (
        ["ttc", "--path", "alice-redeems", "--trials", "1"],
        he_sample(timing={"T": 3, "t_pub": 1, "l": 1, "horizon": 2**63}),
        "horizon"),
    **HUGE_HORIZONS,
}


@pytest.mark.parametrize("case,horizon", [
    ("ttc-horizon-schedule-does-not-fit", 10**12),
    ("ttc-horizon-past-any-draw", 2**63)])
def test_ttc_refuses_a_horizon_it_cannot_walk(case, horizon, tmp_path,
                                              capsys):
    options, doc, _ = CANNOT_CHECK[case]
    path = write_doc(tmp_path, doc)
    assert main([options[0], "--scenario", str(path), *options[1:]]) == 1
    assert capsys.readouterr().err == (
        f"error: validation-error(horizon): a schedule of {horizon} rounds "
        "does not fit in memory\n")


@pytest.mark.parametrize("case", sorted(HUGE_HORIZONS))
def test_every_job_refuses_a_horizon_it_cannot_hold(case, tmp_path, capsys):
    # The line `simulate` and `ttc` print, from every job whose pass
    # would hold a list of the horizon's length.
    options, doc, _ = HUGE_HORIZONS[case]
    path = write_doc(tmp_path, doc)
    assert main([options[0], "--scenario", str(path), *options[1:]]) == 1
    assert capsys.readouterr().err == (
        f"error: validation-error(horizon): a schedule of "
        f"{doc['timing']['horizon']} rounds does not fit in memory\n")


def test_the_enumeration_cap_is_decided_without_its_power(tmp_path, capsys):
    # Three miners over 10^12 free rounds: the cap needs neither the count
    # 3^(10^12) nor a pass over the rounds to count them free.
    doc = he_sample(timing={"T": 3, "t_pub": 1, "l": 1, "horizon": 10**12})
    start = time.perf_counter()
    assert main(["expect", "--scenario", str(write_doc(tmp_path, doc))]) == 1
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "error: enumeration-cap-exceeded: 3^1000000000000 schedules; "
        "use monte-carlo mode\n")


@pytest.mark.parametrize("case", sorted(MALFORMED) + sorted(BAD_OVERRIDES)
                         + sorted(SHADOWED) + sorted(CANNOT_CHECK) + [
    "not-utf8", "deeply-nested", "scenario-is-a-directory",
    "out-is-a-directory"])
def test_bad_input_exits_one_with_one_error_line(case, tmp_path, capsys):
    argv = ["simulate", "--scenario", str(tmp_path / "scen.json")]
    field = None
    if case in MALFORMED:
        doc, field = MALFORMED[case]
        write_doc(tmp_path, doc)
    elif case in BAD_OVERRIDES:
        argv, field = BAD_OVERRIDES[case]
    elif case in SHADOWED or case in CANNOT_CHECK:
        options, doc, field = {**SHADOWED, **CANNOT_CHECK}[case]
        argv = [options[0], *argv[1:], *options[1:]]
        write_doc(tmp_path, doc)
    elif case == "not-utf8":
        (tmp_path / "scen.json").write_bytes(b"\xff\xfe{}")
    elif case == "deeply-nested":
        # Deeper than the JSON parser recurses.
        (tmp_path / "scen.json").write_text("[" * 200_000 + "]" * 200_000)
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


@pytest.mark.parametrize("case", ["miner-power-huge-exponent",
                                  "pool-huge-exponent-reward"])
def test_huge_exponent_is_refused_at_once(case, tmp_path, capsys):
    # `Fraction('1e10000000')` alone takes seconds.
    start = time.perf_counter()
    test_bad_input_exits_one_with_one_error_line(case, tmp_path, capsys)
    assert time.perf_counter() - start < 1


#: Number strings: digits, signs, `/`, `_`, spaces, decimal points and
#: exponents, and digits that are not ASCII ('٣' is one to `Fraction`, '²'
#: is not).  Seven characters hold at most a five-digit exponent, which
#: `Fraction` expands in milliseconds.
@pytest.mark.parametrize("job", [["simulate"], ["expect"],
                                 ["dominance", "--player", "m2"]],
                         ids=lambda job: job[0])
def test_a_power_pair_reads_as_its_fraction(job, tmp_path, capsys):
    # `[p, q]` is the power p/q: two miners of power [1, 2] and two of
    # power "1/2" give one report, but for the digest of the file's bytes.
    reports = []
    for power in ([1, 2], "1/2"):
        path = write_doc(tmp_path, minimal_naive(miners=[
            {"id": "m1", "power": power}, {"id": "m2", "power": power}]))
        assert main([job[0], "--scenario", str(path), *job[1:]]) == 0
        reports.append(capsys.readouterr().out.splitlines())
    pair, text = reports
    assert len(pair) == len(text)
    differ = [(a, b) for a, b in zip(pair, text) if a != b]
    assert len(differ) == 1
    assert all(line.startswith("# scenario-digest: ") for line in differ[0])


NUMBER_STRINGS = st.text(st.sampled_from("0123456789/_+- .eE٣²"),
                         max_size=7)


@settings(max_examples=500, deadline=None)
@given(text=NUMBER_STRINGS)
@example(text="²")
@example(text="1/²")
@example(text="٣/4")
@example(text="0/0")
@example(text="007/14")
@example(text="1e1000")
def test_plain_numbers_parse_as_fraction_does(text):
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        want = f"validation-error(x): {e}"
    try:
        got = runner._frac(text, "x")
    except ScenarioError as e:
        got = str(e)
    if got == "validation-error(x): decimal exponent past 999":
        # The refusal `MALFORMED` pins: a final exponent past three digits.
        exponent = re.search(r"[eE][-+]?0*([0-9_]*) *\Z", text)
        assert len(exponent[1].replace("_", "")) > 3, text
    else:
        assert (type(got), got) == (type(want), want), text


# case -> the exact error line of a trial count too large to draw
TRIAL_REFUSALS = {
    "ttc-huge-trials": "1000000000000 trials x 6 rounds do not fit in memory",
    "expect-mc-huge-trials":
        "1000000000000 trials x 7 rounds do not fit in memory",
    "pool-huge-trials":
        "the draw of 1000000000000 trials does not fit in memory",
    "pool-2^62-trials":
        "the draw of 4611686018427387904 trials does not fit in memory",
    "pool-2^63-trials":
        "the draw of 9223372036854775808 trials does not fit in memory",
    "ttc-overflow-trials":
        "999999999999999999999 trials x 8 rounds do not fit in memory",
    "expect-mc-overflow-trials":
        "999999999999999999999 trials x 8 rounds do not fit in memory",
}


@pytest.mark.parametrize("case", sorted(TRIAL_REFUSALS))
def test_trial_refusals_keep_their_lines(case, capsys):
    assert main(BAD_OVERRIDES[case][0]) == 1
    assert capsys.readouterr().err == \
        f"error: validation-error(trials): {TRIAL_REFUSALS[case]}\n"


def test_draw_bound_is_numpys():
    # numpy addresses at most `intp`'s max bytes, 8 per drawn item; the
    # engine reads the same bound from `sys.maxsize` without loading it.
    import numpy as np
    assert MAX_DRAW_ITEMS == np.iinfo(np.intp).max // 8


@pytest.mark.parametrize("case", ["pool-2^62-trials", "pool-2^63-trials",
                                  "ttc-overflow-trials",
                                  "expect-mc-overflow-trials"])
def test_trials_past_the_draw_bound_load_no_numpy(case):
    assert not loads("numpy", *BAD_OVERRIDES[case][0], code=1)


HE = ["--scenario", str(SCENARIOS / "he_m2mba.json")]


@pytest.mark.parametrize("argv,loaded", [
    pytest.param((), False, id="import"),
    pytest.param(("lemmas", *HE), False, id="lemmas"),
    pytest.param(("expect", *HE, "--mode", "exact"), False,
                 id="expect-exact"),
    pytest.param(("dominance", *NAIVE, "--player", "bob"), False,
                 id="dominance"),
    pytest.param(("simulate", *NAIVE), False, id="simulate-one-miner"),
    pytest.param(("ttc", *HE, "--path", "alice-redeems", "--trials", "20"),
                 False, id="ttc-honest"),
    pytest.param(("pool",), False, id="pool"),
    pytest.param(("expect", *HE, "--mode", "mc", "--trials", "20"), True,
                 id="expect-mc-three-miners"),
    pytest.param(("pool", "--trials", "10"), True, id="pool-trials")])
def test_numpy_loads_only_where_a_job_draws(argv, loaded, tmp_path):
    # Only a Monte-Carlo draw and `pool --trials` import numpy; the two
    # that do show the check can see the load.
    out = ("--out", str(tmp_path / "report.tsv")) if argv else ()
    assert loads("numpy", *argv, *out) is loaded


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
#: Small counts: in range for most fields, so a document that holds them
#: reaches each subcommand's own checks, such as a t_pub equal to T.
NEAR_VALUES = st.integers(0, 4)


@st.composite
def mutated_samples(draw):
    """A sample scenario with one to three values replaced by wrong ones or
    small counts and up to two keys, known or not, added to its sections."""
    doc = json.loads((SCENARIOS / draw(st.sampled_from(SAMPLE_NAMES)))
                     .read_text(encoding="utf-8"))
    for _ in range(draw(st.integers(1, 3))):
        # Paths are drawn afresh: an earlier mutation may have removed some.
        path, _ = draw(st.sampled_from(list(_nodes(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = draw(st.one_of(WRONG_VALUES, NEAR_VALUES))
    sections = [doc] + [node for _, node in _nodes(doc)
                        if isinstance(node, dict)]
    for _ in range(draw(st.integers(0, 2))):
        section = draw(st.sampled_from(sections))
        section[draw(st.text(max_size=6))] = draw(WRONG_VALUES)
    return doc


def assert_ends_cleanly(argv, reported=(0,)):
    """`arena` on `argv` either exits with a code in `reported` and a report
    whose every value is finite and nothing on stderr, or exits 1 with one
    `error:` line and nothing on stdout."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (1, *reported), argv
    if code == 1:
        assert out.getvalue() == "", argv
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert err.getvalue() == "", argv
        values = [v for rec in Report.parse(out.getvalue()).records
                  for v in rec[2:]]
        assert not {"nan", "inf", "-inf"} & set(values), (argv, values)


@settings(max_examples=150, deadline=None)
@given(doc=mutated_samples())
@example(doc=CANNOT_CHECK["lemmas-t_pub-at-T"][1])
@example(doc=CANNOT_CHECK["lemmas-zero-power-focal-colluder"][1])
def test_mutated_sample_scenario_fails_cleanly(tmp_path_factory, doc):
    # `lemmas` exits 2 with its report where a verdict fails, as a
    # mutated scenario may well make it.
    scen = tmp_path_factory.getbasetemp() / "mutated.json"
    scen.write_text(json.dumps(doc), encoding="utf-8")
    for argv, reported in ((["simulate"], (0,)), (["lemmas"], (0, 2)),
                           (["dominance", "--player", "m1"], (0,))):
        assert_ends_cleanly([*argv, "--scenario", str(scen)], reported)


#: Option values a user may pass by mistake: signs, zero, ints past 2^63,
#: floats too large, too small or not finite, booleans and odd strings,
#: and spellings that `int` takes (a space, a plus sign, an Arabic-Indic
#: digit, an underscore) or refuses (hex, a decimal point).
ODD_VALUES = ("-1", "0", str(2 ** 63), str(2 ** 64 + 1), "1e300", "1e-320",
              "nan", "inf", "-inf", "true", "false", "", " ", "x", "1/0",
              "-1/2", "m1\n", "--seed", " 7", "+7", "\u0663", "7_0", "0x10",
              "1.0")
#: Trial counts are small or past any allocation: one that fits in memory
#: but is huge would run for minutes.
TRIALS = ("1", "2", "7", "40", str(10 ** 12), str(2 ** 62), str(2 ** 63),
          "999999999999999999999")
#: Each subcommand's options beyond `--scenario` and `--out`, with the
#: values that make sense for each; every option also draws `ODD_VALUES`.
#: `--out` stays out: the lines of `argvs` run whole, and its own line is
#: in `EDGE_LINES`.
OPTIONS = {
    "simulate": {},
    "expect": {"--mode": ("exact", "mc"), "--trials": TRIALS},
    "dominance": {"--player": ("alice", "bob", "m1", "m2", "m3")},
    "lemmas": {},
    "pool": {"--hash": ("1/10", "1/3", "1"), "--network-hash": ("1", "2"),
             "--pool-size": ("1", "25"), "--reward": ("1", "5/2"),
             "--pool-fee": ("0", "1/50"), "--lambda-net": ("100", "1/2"),
             "--alpha-risk": ("1.0", "0.01"), "--trials": TRIALS},
    "ttc": {"--variant": ("mad", "he", "demba"),
            "--path": ("alice-redeems", "bob-collateral", "bob-both"),
            "--trials": TRIALS},
}


@st.composite
def argvs(draw):
    """An `arena` command line: a subcommand on a sample scenario, each of
    its options left out or given a sensible value (twice as often) or an
    odd one, so that most lines get past the parser."""
    sub = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [sub]
    if sub != "pool":
        argv += ["--scenario", str(SCENARIOS / draw(
            st.sampled_from(SAMPLE_NAMES)))]
    for option, values in {"--seed": ("0", "3"), **OPTIONS[sub]}.items():
        how = draw(st.sampled_from((None, values, values, ODD_VALUES)))
        if how is not None:
            argv += [option, draw(st.sampled_from(how))]
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=argvs())
def test_every_command_line_ends_cleanly(argv):
    assert_ends_cleanly(argv)


class _Parsed(Exception):
    """Raised in place of `main`'s option checks, with the namespace that
    `main` parsed."""


def _shown(args) -> dict:
    """A namespace's values by name, as `repr`s: a NaN equals its twin."""
    return {name: repr(value) for name, value in vars(args).items()}


def parsed_by_main(argv):
    """`main`'s namespace for `argv` (`_shown`), or the exit code and the
    stderr of the job that refused it."""
    def stop(args):
        raise _Parsed(args)

    err = io.StringIO()
    with mock.patch.object(runner, "_check_options", stop), \
            redirect_stderr(err):
        try:
            return main(argv), err.getvalue()
        except _Parsed as stopped:
            return _shown(stopped.args[0])


def parsed_by_parser(argv):
    """The top-level parser's namespace for `argv` (`_shown`), or the exit
    code and the error line of `main` for the usage error it raised."""
    try:
        return _shown(runner.build_parser().parse_args(argv))
    except ScenarioError as e:
        return 1, f"error: {e}\n"


TTC = ["--scenario", str(SCENARIOS / "naive_bribery.json"), "--path",
       "alice-redeems"]
#: Lines at the edges of the parsers: no or an unknown subcommand, an
#: option before the subcommand, abbreviations, `=`, a repeated option,
#: the `--` separator, a value that is an option or negative, one that
#: its type or its choices refuse, a required option left out and an
#: option without its value.  The `plain-` lines are the ones `main`
#: reads without argparse: `--out` and a float type.
EDGE_LINES = {
    "empty": [],
    "unknown-subcommand": ["verify", *NAIVE],
    "option-first": ["--seed", "3", "ttc", *TTC],
    "abbreviations": ["ttc", "--scen", TTC[1], "--pa", "bob-both", "--tr",
                      "4"],
    "ambiguous-abbreviation": ["expect", "--scen", NAIVE[1], "--s", "1"],
    "seed-with-equals": ["ttc", *TTC, "--seed=3"],
    "repeated-option": ["ttc", *TTC, "--seed", "1", "--seed", "2"],
    "separator-then-stray": ["ttc", *TTC, "--", "x"],
    "separator-first": ["ttc", "--", *TTC],
    "subcommand-twice": ["ttc", "ttc", *TTC],
    "value-is-an-option": ["dominance", *NAIVE, "--player", "--seed"],
    "negative-value": ["ttc", *TTC, "--seed", "-1"],
    "type-refused": ["ttc", *TTC, "--trials", "0x10"],
    "choice-refused": ["ttc", *TTC, "--variant", "naive"],
    "required-left-out": ["ttc", *NAIVE],
    "option-without-value": ["ttc", *TTC, "--trials"],
    "plain-out": ["ttc", *TTC, "--out",
                  str(Path(tempfile.gettempdir()) / "report.tsv")],
    "plain-alpha-risk-nan": ["pool", "--alpha-risk", "nan"],
}


@pytest.mark.parametrize("case", sorted(EDGE_LINES))
def test_main_parses_an_edge_line_as_the_parser_does(case):
    argv = EDGE_LINES[case]
    assert parsed_by_main(argv) == parsed_by_parser(argv)


@settings(max_examples=200, deadline=None)
@given(argv=argvs())
def test_main_parses_every_line_as_the_parser_does(argv):
    assert parsed_by_main(argv) == parsed_by_parser(argv)


def test_main_parses_every_battery_line_as_the_parser_does():
    # The 153 lines of the byte-identity battery; none is run.
    battery = json.loads((Path(__file__).parent / "golden" /
                          "battery.json").read_text(encoding="utf-8"))
    for argv in (entry["argv"] for entry in battery):
        assert parsed_by_main(argv) == parsed_by_parser(argv), argv


@pytest.mark.parametrize("argv", [["ttc", "--help"], ["-h"],
                                  ["ttc", *TTC, "--help", "x"]])
def test_help_prints_the_parsers_text(argv, capsys):
    with pytest.raises(SystemExit) as direct:
        runner.build_parser().parse_args(argv)
    want = capsys.readouterr()
    with pytest.raises(SystemExit) as job:
        main(argv)
    assert (job.value.code, capsys.readouterr()) == (0, want)
    assert direct.value.code == 0 and want.out.startswith("usage: arena")


def test_a_job_parses_its_line_once(monkeypatch, capsys):
    # A plain line is read from the subcommand parser's actions and never
    # reaches argparse; every other line that names a subcommand, help
    # included, reaches that subcommand's parser once.
    calls = []
    real = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    assert main(["ttc", *TTC, "--trials", "5"]) == 0
    assert calls == []
    lines = {case: argv for case, argv in EDGE_LINES.items()
             if argv[:1] and argv[0] in runner.COMMANDS}
    lines["help"] = ["ttc", "--help"]
    seen = {}
    for case, argv in lines.items():
        calls.clear()
        with suppress(SystemExit):
            parsed_by_main(argv)
        seen[case] = calls.copy()
    assert seen == {case: [] if case.startswith("plain-") else
                    [f"arena {argv[0]}"] for case, argv in lines.items()}


def test_every_command_is_a_subcommand():
    assert set(runner.build_parser().commands) == set(runner.COMMANDS)


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

    def test_mad_bob_both_completes_with_its_later_redemption(self):
        # perfbench's ttc-mad-x1 game with room for one transaction a
        # block.  Bob broadcasts the deposit refund (fee 1) and the
        # collateral spend (fee 2) at T = 3; the fee-maximising miner lands
        # the collateral in round 4 and the refund in round 5, and the
        # payer's path completes with the later one.
        scen = monte_carlo(mad_scenario(v_dep=10, v_col=10, T=3, br=2,
                                        capacity=1), 10)
        assert ttc(scen, "bob-both")["mean"] == 5.0
        roomy = monte_carlo(mad_scenario(v_dep=10, v_col=10, T=3, br=2), 10)
        assert ttc(roomy, "bob-both")["mean"] == 4.0

    def test_bad_path_rejected(self):
        with pytest.raises(ScenarioError):
            ttc(monte_carlo(demba_scenario(), 1, seed=0), "sideways")

    def test_naive_has_no_collateral_path(self):
        with pytest.raises(ScenarioError, match="naive has no collateral"):
            ttc(monte_carlo(naive_scenario(), 1, seed=0), "bob-collateral")

    def test_exact_mode_scenario_is_rejected(self):
        with pytest.raises(ScenarioError, match=r"^validation-error\(mode\)"):
            ttc(demba_scenario(), "bob-both")

    @pytest.mark.parametrize("name,argv,loaded", [
        pytest.param("naive_bribery.json", ("ttc", "--path", "alice-redeems"),
                     False, id="naive_bribery.json-False"),
        pytest.param("he_m2mba.json", ("ttc", "--path", "alice-redeems"),
                     False, id="he_m2mba.json-ttc-False"),
        pytest.param("he_m2mba.json", ("expect", "--mode", "mc"), True,
                     id="he_m2mba.json-True")])
    def test_numpy_random_loads_only_where_a_job_draws(self, tmp_path, name,
                                                       argv, loaded):
        # A one-miner job draws nothing, and neither does a `ttc` job whose
        # honest miners take every round whole, so neither may load the
        # module; `expect` on three miners with unequal policies splits its
        # trials by pick and draws, which shows the check can see the load.
        assert loads(
            "numpy.random", argv[0], "--scenario", str(SCENARIOS / name),
            *argv[1:], "--trials", "20", "--out",
            str(tmp_path / "report.tsv")) is loaded

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
