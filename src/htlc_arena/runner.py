"""Scenario ingestion, CLI subcommands, and report emission.

Scenario files are JSON documents with sections protocol / amounts / fees /
timing / miners / policies / bribes / mode / seed.  Reports are UTF-8 text:
'#'-prefixed header lines, tab-separated records (metric, party, value,
ci_low, ci_high), then a '#'-prefixed human summary.  Records round-trip:
parsing a report reproduces the record strings exactly.

Exit codes: 0 success, 1 usage or validation errors, 2 a lemma or theorem
verdict failed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import __version__
from .core import ArenaError, EXTERNAL, ScenarioError, miner_party
from .contracts import (COL_B, COL_B_ID, COL_ID, DEP_A, DEP_ID, FeeSchedule,
                        PRE_A, PRE_A2, PRE_AA2, PRE_B)
from .game import (MinerProfile, Scenario, StrategyProfile, dominance_check,
                   expected_utilities, final_outcomes, mean_half_width, play,
                   sample_schedule)
from .agents import (AliceHonest, AliceOffline, BobHonest, HonestFeeMax,
                     make_miner_policy, make_party_policy)
from . import analysis
from .analysis import (PoolParams, pool_math, pool_mc, verify_demba,
                       verify_demba_lemma, verify_m2mba_lemma,
                       verify_theorem_m2mba)

import numpy as np


# ---------------------------------------------------------------------------
# Scenario loading.
# ---------------------------------------------------------------------------


def _frac(value, what: str) -> Fraction:
    try:
        if isinstance(value, str):
            return Fraction(value)
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, (list, tuple)) and len(value) == 2:
            return Fraction(value[0], value[1])
    except (ValueError, ZeroDivisionError) as e:
        raise ScenarioError(f"validation-error({what}): {e}") from e
    raise ScenarioError(f"validation-error({what}): expected int, 'p/q', or [p, q]")


def _object(value, what: str, known=None) -> dict:
    """`value` as an object; with `known`, one that holds no other key."""
    if not isinstance(value, dict):
        raise ScenarioError(f"validation-error({what}): expected an object")
    if known is not None:
        _known_keys(value, known, f"{what}.")
    return value


def _known_keys(part: dict, known, prefix: str = "") -> None:
    for key in part:
        if key not in known:
            # repr() keeps a key with a line break on the one error line.
            shown = key if key.isprintable() else repr(key)
            raise ScenarioError(f"validation-error({prefix}{shown}): unknown "
                                f"key, expected one of {', '.join(known)}")


_PAID_KEYS = {"pre_A": PRE_A, "pre_A'": PRE_A2, "pre_AA'": PRE_AA2,
              "pre_B": PRE_B}


def _fee_schedule_from(doc: dict, T: int) -> FeeSchedule:
    paid_doc = _object(doc.get("paid", {}), "fees.schedule.paid", _PAID_KEYS)
    try:
        paid = {path: paid_doc[key] for key, path in _PAID_KEYS.items()}
    except KeyError as e:
        raise ScenarioError(f"validation-error(fees.schedule.paid): missing {e}")
    return FeeSchedule(paid, _frac(doc.get("alpha", "1/2"), "fees.schedule.alpha"), T)


def load_scenario(path) -> tuple:
    """Parse and validate a scenario file; returns (Scenario, StrategyProfile)."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ScenarioError(f"parse-error(line {e.lineno}, col {e.colno}): {e.msg}")
    except UnicodeDecodeError as e:
        raise ScenarioError(f"parse-error: {e}") from e
    return scenario_from_doc(doc)


def scenario_from_doc(doc) -> tuple:
    """Translate a scenario document into (Scenario, StrategyProfile).

    Building the Scenario makes every check on the game's parameters; a
    malformed document surfaces as one ScenarioError, never a traceback.
    """
    doc = _object(doc, "document")
    _known_keys(doc, _TOP_LEVEL)
    try:
        scen = _scenario_from_doc(doc)
        policies = _object(doc.get("policies", {}), "policies",
                           ("alice", "bob", "miners"))
        return scen, _profile_from_doc(policies, scen)
    except ScenarioError:
        raise
    except (ArenaError, TypeError, ValueError, OverflowError) as e:
        raise ScenarioError(f"validation-error: {e}") from e


#: The Scenario fields each document section holds (None: the top level).
#: A key the document leaves out keeps the Scenario default; a key that no
#: section knows is an error, so that a misspelt one cannot pass silently.
_SECTIONS = {
    None: ("protocol", "capacity", "seed"),
    "amounts": ("v_dep", "v_col", "v_col_a", "v_col_b", "v_ded"),
    "fees": ("f", "f_dep_a", "f_dep_b", "f_col_b", "f_cbob_b", "f_calice_a"),
    "timing": ("T", "l", "t_pub", "horizon"),
    "bribes": ("br", "epsilon"),
}
#: Keys a section holds besides its Scenario fields.
_EXTRA_KEYS = {"fees": ("schedule",)}
_TOP_LEVEL = (*_SECTIONS[None], *(s for s in _SECTIONS if s is not None),
              "miners", "policies", "mode")
_MINER_KEYS = ("id", "power", "kind", "colluding")


def _scenario_from_doc(doc: dict) -> Scenario:
    values = {}
    for section, names in _SECTIONS.items():
        part = doc if section is None else _object(
            doc.get(section, {}), section, names + _EXTRA_KEYS.get(section, ()))
        values.update((name, part[name]) for name in names if name in part)
    # A missing required field reaches the Scenario's checks as None.
    for name in ("protocol", "v_dep", "T"):
        values.setdefault(name, None)
    miners_doc = doc.get("miners") or [{"id": "m1", "power": 1}]
    if not isinstance(miners_doc, list):
        raise ScenarioError("validation-error(miners): expected a list")
    miners = []
    for i, m in enumerate(miners_doc):
        m = _object(m, f"miners[{i}]", _MINER_KEYS)
        power = _frac(m.get("power", 0), f"miners[{i}].power")
        miners.append(MinerProfile(miner_party(m.get("id", f"m{i + 1}")), power,
                                   m.get("kind", "passive"),
                                   m.get("colluding", False)))
    fees = doc.get("fees", {})
    if "schedule" in fees:
        values["fee_schedule"] = _fee_schedule_from(
            _object(fees["schedule"], "fees.schedule", ("paid", "alpha")),
            values["T"])
    mode_doc = doc.get("mode", "exact")
    if mode_doc == "exact":
        values["mode"] = ("exact",)
    elif isinstance(mode_doc, dict) and "monte-carlo" in mode_doc:
        _object(mode_doc, "mode", ("monte-carlo",))
        values["mode"] = ("monte-carlo", mode_doc["monte-carlo"])
    else:
        raise ScenarioError(f"validation-error(mode): got {mode_doc!r}")
    return Scenario(miners=tuple(miners), **values)


def _policy_from_doc(doc, what: str, make, *role):
    params = dict(_object(doc, what))
    try:
        return make(*role, params.pop("name", None), **params)
    except (TypeError, ValueError) as e:
        # TypeError: a key named like a factory argument, such as `role`.
        raise ScenarioError(f"validation-error({what}): {e}") from e


def _profile_from_doc(doc: dict, scen: Scenario) -> StrategyProfile:
    alice = _policy_from_doc(doc.get("alice", {"name": "honest"}),
                             "policies.alice", make_party_policy, "alice")
    bob = _policy_from_doc(doc.get("bob", {"name": "honest"}),
                           "policies.bob", make_party_policy, "bob")
    miners_doc = _object(doc.get("miners", {}), "policies.miners",
                         ("default", *(m.party.id for m in scen.miners)))
    default_doc = miners_doc.get("default", {"name": "honest-fee-max"})
    miners = {}
    for m in scen.miners:
        miners[m.party] = _policy_from_doc(
            miners_doc.get(m.party.id, default_doc),
            f"policies.miners.{m.party.id}", make_miner_policy)
    return StrategyProfile(alice, bob, miners)


# ---------------------------------------------------------------------------
# Reports.
# ---------------------------------------------------------------------------


def fmt_value(v) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}" if v.denominator != 1 \
            else str(v.numerator)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def fmt_fraction(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


@dataclass
class Report:
    header: dict
    records: list = field(default_factory=list)  # (metric, party, value, lo, hi)
    summary: list = field(default_factory=list)

    def add(self, metric: str, party="-", value="-", lo="-", hi="-"):
        self.records.append((str(metric), str(party), fmt_value(value),
                             fmt_value(lo), fmt_value(hi)))

    def render(self) -> str:
        lines = [f"# arena-report {__version__}"]
        for key in sorted(self.header):
            lines.append(f"# {key}: {self.header[key]}")
        lines.append("# columns: metric\tparty\tvalue\tci_low\tci_high")
        for rec in self.records:
            lines.append("\t".join(rec))
        if self.summary:
            lines.append("# summary:")
            for line in self.summary:
                lines.append(f"#   {line}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def parse(text: str) -> "Report":
        header: dict = {}
        records: list = []
        summary: list = []
        in_summary = False
        for line in text.splitlines():
            if line.startswith("#"):
                body = line[1:].strip()
                if body == "summary:":
                    in_summary = True
                elif in_summary:
                    summary.append(body)
                elif ": " in body:
                    key, _, value = body.partition(": ")
                    header[key] = value
                continue
            if line.strip():
                parts = tuple(line.split("\t"))
                if len(parts) != 5:
                    raise ScenarioError(f"parse-error(report record): {line!r}")
                records.append(parts)
        return Report(header, records, summary)


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def _base_header(args, subcommand: str, scen=None) -> dict:
    """Report header; the seed is the scenario's when a run reads one."""
    header = {"subcommand": subcommand}
    header["seed"] = (scen.seed if scen is not None
                      else args.seed if args.seed is not None else 0)
    if getattr(args, "scenario", None):
        header["scenario-digest"] = _digest(args.scenario)
    return header


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

#: Monte-Carlo trials of `expect --mode mc` and `ttc` without `--trials`.
DEFAULT_TRIALS = 10_000


def _check_options(args) -> None:
    """The one check on `--seed` and `--trials`, for every subcommand that
    takes them, whether or not it reads them."""
    if args.seed is not None and args.seed < 0:
        raise ScenarioError("validation-error(seed): expected a non-negative "
                            f"int, got {args.seed}")
    trials = getattr(args, "trials", None)
    if trials is not None and trials < 1:
        raise ScenarioError("validation-error(trials): expected a positive "
                            f"int, got {trials}")


def _load_overridden(args, mode: Optional[tuple] = None) -> tuple:
    """Load the scenario, then apply `--seed` and the given mode in one
    `replace`, so that an override passes the checks a file value does."""
    scen, profile = load_scenario(args.scenario)
    changes = {} if args.seed is None else {"seed": args.seed}
    if mode is not None:
        changes["mode"] = mode
    return (replace(scen, **changes) if changes else scen), profile


def cmd_simulate(args) -> tuple:
    scen, profile = _load_overridden(args)
    rng = np.random.default_rng(scen.seed)
    schedule = sample_schedule(scen, rng)
    out = play(scen, profile, schedule)
    report = Report(_base_header(args, "simulate", scen))
    for party in sorted(out.deltas, key=lambda p: p.id):
        if party == EXTERNAL:
            continue
        report.add("utility", party.id, out.deltas[party])
    report.add("burned", "-", out.burned)
    report.add("minted", "-", out.minted)
    report.add("terminal", "-", out.terminal)
    report.add("final-label", "-", out.trace[-1])
    report.summary.append(f"terminal resolution: {out.terminal}")
    report.summary.append("schedule: " + ",".join(p.id for p in schedule.miners))
    return report, 0


def cmd_expect(args) -> tuple:
    mode = None
    if args.mode == "exact":
        mode = ("exact",)
    elif args.mode == "mc" or args.trials is not None:
        mode = ("monte-carlo", args.trials or DEFAULT_TRIALS)
    scen, profile = _load_overridden(args, mode)
    eu = expected_utilities(scen, profile)
    report = Report(_base_header(args, "expect", scen))
    report.header["mode"] = eu.mode
    for party in sorted(eu.utilities, key=lambda p: p.id):
        if party == EXTERNAL:
            continue
        value = eu.utilities[party]
        if eu.ci is not None and party in eu.ci:
            lo, hi = eu.ci[party]
            report.add("utility", party.id, float(value), lo, hi)
        else:
            report.add("utility", party.id, fmt_fraction(value))
    for party in sorted(eu.bribe_income, key=lambda p: p.id):
        report.add("bribe-income", party.id, fmt_fraction(eu.bribe_income[party]))
    report.add("burned", "-", fmt_fraction(eu.burned))
    report.summary.append(f"{eu.mode} expectation over miner schedules")
    return report, 0


def _default_spaces(scen: Scenario, player: str) -> list:
    if scen.protocol == "demba":
        spaces = analysis.demba_deviation_spaces(scen)
        if player in ("alice", "bob"):
            return spaces[player]
        return spaces["miners"]
    if player == "alice":
        return [AliceHonest(), AliceOffline()]
    if player == "bob":
        return [BobHonest(), make_party_policy("bob", "naive-briber")]
    kind = next((m.kind for m in scen.miners if m.party.id == player), "passive")
    if scen.protocol == "he":
        return analysis.m2mba_policy_space(kind)
    return [HonestFeeMax(), make_miner_policy("censor-related")]


def cmd_dominance(args) -> tuple:
    scen, profile = load_scenario(args.scenario)
    player = args.player
    key = player if player in ("alice", "bob") else miner_party(player)
    if player == "alice":
        candidate = profile.alice
    elif player == "bob":
        candidate = profile.bob
    else:
        if key not in profile.miners:
            raise ScenarioError(f"validation-error(player): no miner {player!r}")
        candidate = profile.miners[key]
    alternatives = [p for p in _default_spaces(scen, player)
                    if p.name != candidate.name]
    verdict = dominance_check(scen, key, candidate,
                              [candidate] + alternatives, [profile])
    report = Report(_base_header(args, "dominance"))
    report.add("dominance", player, verdict.verdict)
    report.add("candidate", player, candidate.name)
    if verdict.witness:
        report.add("witness-alternative", player, verdict.witness["alternative"])
        report.add("witness-candidate-utility", player,
                   verdict.witness["candidate_utility"])
        report.add("witness-alternative-utility", player,
                   verdict.witness["alternative_utility"])
    report.summary.append(f"{candidate.name} is {verdict.verdict} for {player}")
    return report, 0


def cmd_lemmas(args) -> tuple:
    scen, _ = load_scenario(args.scenario)
    if scen.protocol == "he":
        verify, numbers, theorem = verify_m2mba_lemma, (1, 2, 3, 4, 5), "m2mba"
    elif scen.protocol == "demba":
        verify, numbers, theorem = verify_demba_lemma, (6, 7, 8), "demba"
    else:
        raise ScenarioError(
            "validation-error(protocol): lemma checks need 'he' or 'demba'")
    report = Report(_base_header(args, "lemmas"))
    failed = False
    for n in numbers:
        v = verify(n, scen)
        report.add(v.lemma_id, "-",
                   f"consistent={'true' if v.consistent else 'false'}",
                   f"hypothesis={v.hypothesis_holds}",
                   f"conclusion={v.conclusion_holds}")
        failed |= not v.consistent
    if scen.protocol == "he":
        thm = verify_theorem_m2mba(scen)
        dominant = thm.all_dominant
        failed |= thm.hypothesis_holds and not dominant
    else:
        dominant = verify_demba(scen).all_hold
        failed |= not dominant
    report.add(f"theorem-{theorem}", "-",
               "dominant" if dominant else "not-dominant")
    report.summary.append("all lemma verdicts consistent" if not failed
                          else "LEMMA/THEOREM FAILURE")
    return report, (2 if failed else 0)


def cmd_pool(args) -> tuple:
    params = PoolParams(h=_frac(args.hash, "h"), H=_frac(args.network_hash, "H"),
                        N=args.pool_size, R=_frac(args.reward, "R"),
                        f_pool=_frac(args.pool_fee, "f"),
                        lambda_net=_frac(args.lambda_net, "lambda"),
                        alpha_risk=args.alpha_risk)
    rep = pool_math(params)
    report = Report(_base_header(args, "pool"))
    report.add("E_solo", "-", fmt_fraction(rep.E_solo))
    report.add("E_pool", "-", fmt_fraction(rep.E_pool))
    report.add("ratio", "-", fmt_fraction(rep.ratio))
    report.add("Var_solo", "-", fmt_fraction(rep.Var_solo))
    report.add("Var_pool", "-", fmt_fraction(rep.Var_pool))
    report.add("EU_solo", "-", rep.EU_solo)
    report.add("EU_pool", "-", rep.EU_pool)
    report.add("delta_U", "-", rep.delta_U)
    if args.trials:
        mc = pool_mc(params, args.trials, args.seed or 0)
        for key in ("mean_solo", "var_solo", "mean_pool", "var_pool"):
            report.add(f"mc_{key}", "-", mc[key])
    report.summary.append(
        "pool preferred (delta_U > 0)" if rep.delta_U > 0
        else "solo preferred (delta_U <= 0)")
    return report, 0


# ---------------------------------------------------------------------------
# Time to complete.
# ---------------------------------------------------------------------------

TTC_PATHS = ("alice-redeems", "bob-collateral", "bob-both")


def _ttc_profile(scen: Scenario, path: str) -> StrategyProfile:
    miners = {p: HonestFeeMax() for p in scen.miner_parties()}
    if path == "bob-both":
        return StrategyProfile(AliceOffline(), BobHonest(1), miners)
    return StrategyProfile(AliceHonest(), BobHonest(1), miners)


def _completion_round(out, scen: Scenario, path: str) -> Optional[int]:
    red = out.state.redemptions

    def landed(cid: str, via: Optional[str] = None) -> Optional[int]:
        """The round contract `cid` was redeemed in (through path `via`)."""
        entry = red.get(cid)
        return entry[1] if entry and via in (None, entry[0]) else None

    if scen.protocol == "demba":
        return landed(COL_B_ID if path == "bob-collateral" else DEP_ID)
    if path == "alice-redeems":
        return landed(DEP_ID, DEP_A)
    if path == "bob-collateral":
        if scen.protocol == "naive":
            raise ScenarioError("validation-error(path): naive has no collateral")
        return landed(DEP_ID if scen.protocol == "he" else COL_ID)
    if scen.protocol == "naive":
        return landed(DEP_ID)
    if scen.protocol == "he":
        # The staged refund completes when the combined pot leaves the
        # collateral contract.
        return landed(COL_ID, COL_B)
    rounds = [red[c][1] for c in (DEP_ID, COL_ID) if c in red]
    return max(rounds) if len(rounds) == 2 else None


def ttc(scen: Scenario, path: str) -> dict:
    """Monte-Carlo rounds-to-final-transfer with a 95% half-width, over the
    scenario's Monte-Carlo trials and seed."""
    if path not in TTC_PATHS:
        raise ScenarioError(f"validation-error(path): {path!r}")
    if scen.mode[0] != "monte-carlo":
        raise ScenarioError("validation-error(mode): sampling needs "
                            f"monte-carlo, got {scen.mode!r}")
    pairs, trials = final_outcomes(scen, _ttc_profile(scen, path))
    total = total_sq = 0  # integer sums, exact when turned into floats
    for out, n in pairs:
        done = _completion_round(out, scen, path)
        if done is None:
            raise ScenarioError(
                f"validation-error: {path} never completed within the horizon")
        total += n * done
        total_sq += n * done * done
    mean, half = mean_half_width(total, total_sq, trials)
    return {"mean": mean, "half_width": half, "trials": trials, "l": scen.l}


def cmd_ttc(args) -> tuple:
    scen, _ = _load_overridden(args, ("monte-carlo", args.trials))
    variant = args.variant or scen.protocol
    if variant != scen.protocol:
        raise ScenarioError("validation-error(variant): scenario protocol is "
                            f"{scen.protocol!r}")
    result = ttc(scen, args.path)
    report = Report(_base_header(args, "ttc", scen))
    report.add("ttc-mean-rounds", "-", result["mean"],
               result["mean"] - result["half_width"],
               result["mean"] + result["half_width"])
    report.add("ttc-delay-param", "-", result["l"])
    report.add("ttc-trials", "-", result["trials"])
    report.summary.append(
        "round granularity; multiply by the chain's block interval for "
        "wall-clock figures (trends only)")
    return report, 0


# ---------------------------------------------------------------------------
# CLI wiring.
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `arena` parser, built once: `parse_args` does not change it."""
    parser = argparse.ArgumentParser(
        prog="arena",
        description="Deterministic HTLC bribery-game simulator and verifier")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, scenario=True):
        if scenario:
            p.add_argument("--scenario", required=True, help="scenario JSON path")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="write the report here")

    p = sub.add_parser("simulate", help="run one schedule to the horizon")
    common(p)
    p = sub.add_parser("expect", help="expected utilities over schedules")
    common(p)
    p.add_argument("--mode", choices=("exact", "mc"), default=None)
    p.add_argument("--trials", type=int, default=None)
    p = sub.add_parser("dominance", help="brute-force policy dominance")
    common(p)
    p.add_argument("--player", required=True,
                   help="'alice', 'bob', or a miner id")
    p = sub.add_parser("lemmas", help="verify the dominance lemmas and theorems")
    common(p)
    p = sub.add_parser("pool", help="solo vs pool mining mathematics")
    common(p, scenario=False)
    p.add_argument("--hash", default="1/10", help="miner hash rate h")
    p.add_argument("--network-hash", default="1", help="network hash rate H")
    p.add_argument("--pool-size", type=int, default=25)
    p.add_argument("--reward", default="1", help="block reward R")
    p.add_argument("--pool-fee", default="1/50")
    p.add_argument("--lambda-net", default="100", help="network block rate")
    p.add_argument("--alpha-risk", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=None)
    p = sub.add_parser("ttc", help="time-to-complete in rounds")
    common(p)
    p.add_argument("--variant", choices=("mad", "he", "demba"), default=None)
    p.add_argument("--path", choices=TTC_PATHS, required=True)
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    return parser


COMMANDS = {"simulate": cmd_simulate, "expect": cmd_expect,
            "dominance": cmd_dominance, "lemmas": cmd_lemmas,
            "pool": cmd_pool, "ttc": cmd_ttc}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_options(args)
        report, code = COMMANDS[args.subcommand](args)
        text = report.render()
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
    except (ScenarioError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
