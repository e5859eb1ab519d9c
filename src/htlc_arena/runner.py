"""Scenario ingestion, CLI subcommands, and report emission.

Scenario files are JSON documents with sections protocol / amounts / fees /
timing / miners / policies / bribes / mode / seed.  Reports are UTF-8 text:
'#'-prefixed header lines, tab-separated records (metric, party, value,
ci_low, ci_high), then a '#'-prefixed human summary.  Records round-trip:
parsing a report reproduces the record strings exactly.

Exit codes: 0 success, 1 usage or validation errors, 2 a lemma or theorem
verdict failed.

What differs by protocol (which lemmas and theorem `lemmas` runs, which
redemptions complete a `ttc` path) is read from the scenario's record,
its row of `game.PROTOCOLS`.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import __version__
from .core import ArenaError, EXTERNAL, ScenarioError, miner_party
from .contracts import FeeSchedule, PRE_A, PRE_A2, PRE_AA2, PRE_B
from .game import (MinerProfile, Scenario, Schedule, StrategyProfile,
                   check_field, each_round, expected_utilities,
                   mean_half_width, play, policy_key, sample_schedule,
                   trial_list, walk)
from .agents import (AliceHonest, AliceOffline, BobHonest, HonestFeeMax,
                     make_miner_policy, make_party_policy, policy_space)
from .analysis import (PoolParams, dominance_check, pool_math, pool_mc,
                       verify_demba, verify_demba_lemma, verify_m2mba_lemma,
                       verify_theorem_m2mba)


# ---------------------------------------------------------------------------
# Scenario loading.
# ---------------------------------------------------------------------------


#: A decimal exponent in a number string has at most three digits.
#: `Fraction` expands the exponent into an exact power of ten before any
#: range check, so '1e10000000' alone takes seconds and a longer exponent
#: hours; no figure of a game or a pool needs one past what a float holds.
_EXPONENT = re.compile(r"[eE][-+]?0*([0-9_]*)\s*\Z")


def _frac(value, what: str) -> Fraction:
    # `type(...) is int` also turns away bools: `true` is never a number.
    try:
        if isinstance(value, str):
            # A plain ASCII 'p' or 'p/q' skips `Fraction`'s regexes; `int`
            # would refuse a digit such as '²' with a message of its own.
            num, slash, den = value.partition("/")
            if value.isascii() and num.isdigit() and (
                    den.isdigit() or not slash):
                return Fraction(int(num), int(den) if slash else 1)
            exponent = _EXPONENT.search(value)
            if exponent and len(exponent[1].replace("_", "")) > 3:
                raise ScenarioError(f"validation-error({what}): decimal "
                                    "exponent past 999")
            return Fraction(value)
        if type(value) is int:
            return Fraction(value)
        if (isinstance(value, (list, tuple)) and len(value) == 2
                and all(type(v) is int for v in value)):
            return Fraction(*value)
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
    # A missing fee is the contract check's to refuse.
    paid = {path: paid_doc[key] for key, path in _PAID_KEYS.items()
            if key in paid_doc}
    return FeeSchedule(paid, _frac(doc.get("alpha", "1/2"), "fees.schedule.alpha"), T)


def load_scenario(source, overrides=None) -> tuple:
    """Parse and validate a scenario file; returns (Scenario, StrategyProfile).

    `source` is the file's path or the bytes read from it, which are
    decoded as a text-mode read of the path would.  `overrides` maps
    Scenario fields to values that replace the file's
    (`scenario_from_doc`)."""
    data = source if isinstance(source, bytes) else Path(source).read_bytes()
    try:
        # Universal newlines, as `Path.read_text` reads: a parse error
        # names the same line and column.
        text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"parse-error(line {e.lineno}, col {e.colno}): {e.msg}")
    except UnicodeDecodeError as e:
        raise ScenarioError(f"parse-error: {e}") from e
    except RecursionError as e:
        raise ScenarioError("parse-error: nested too deeply") from e
    return scenario_from_doc(doc, overrides)


def scenario_from_doc(doc, overrides=None) -> tuple:
    """Translate a scenario document into (Scenario, StrategyProfile).

    `overrides` maps Scenario fields (`seed`, `mode`) to values that
    replace the document's in the translation, so the Scenario is built
    once; a document value they replace still gets its own check first.
    Building the Scenario makes every check on the game's parameters; a
    malformed document surfaces as one ScenarioError, never a traceback.
    """
    doc = _object(doc, "document")
    _known_keys(doc, _TOP_LEVEL)
    try:
        scen = _scenario_from_doc(doc, overrides or {})
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
    "fees": ("f", "f_dep_a", "f_dep_b", "f_col_b", "f_cbob_b"),
    "timing": ("T", "l", "t_pub", "horizon"),
    "bribes": ("br", "epsilon"),
}
#: Keys a section holds besides its Scenario fields.
_EXTRA_KEYS = {"fees": ("schedule",)}
_TOP_LEVEL = (*_SECTIONS[None], *(s for s in _SECTIONS if s is not None),
              "miners", "policies", "mode")
_MINER_KEYS = ("id", "power", "kind", "colluding")


def _scenario_from_doc(doc: dict, overrides: dict) -> Scenario:
    values = {}
    for section, names in _SECTIONS.items():
        part = doc if section is None else _object(
            doc.get(section, {}), section, names + _EXTRA_KEYS.get(section, ()))
        for name in names:
            if name in part:
                values[name] = part[name]
    # A missing required field reaches the Scenario's checks as None.
    for name in ("protocol", "v_dep", "T"):
        values.setdefault(name, None)
    miners_doc = doc.get("miners", [{"id": "m1", "power": 1}])
    if not isinstance(miners_doc, list) or not miners_doc:
        raise ScenarioError("validation-error(miners): expected a non-empty "
                            "list")
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
    for name, value in overrides.items():
        if name in values:
            check_field(name, values[name])
        values[name] = value
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
    # By exact type: `isinstance` against the ABC `Fraction` is slow.
    if type(v) is Fraction:
        return f"{v.numerator}/{v.denominator}" if v.denominator != 1 \
            else str(v.numerator)
    if type(v) is float:
        return repr(v) if v else "0.0"  # a negative zero prints unsigned
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


def _base_header(args, subcommand: str, scen=None, digest=None) -> dict:
    """Report header; the seed is the scenario's when a run reads one, and
    `digest` names the scenario bytes the job parsed (`_load`)."""
    header = {"subcommand": subcommand}
    header["seed"] = (scen.seed if scen is not None
                      else args.seed if args.seed is not None else 0)
    if digest is not None:
        header["scenario-digest"] = digest
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


def _load(args, overrides=None) -> tuple:
    """The job's scenario, its file read once: (Scenario, StrategyProfile,
    the digest of the very bytes that were parsed)."""
    data = Path(args.scenario).read_bytes()
    scen, profile = load_scenario(data, overrides)
    return scen, profile, hashlib.sha256(data).hexdigest()[:16]


def _load_overridden(args, mode: Optional[tuple] = None) -> tuple:
    """`_load` with `--seed` and the given mode in place of the file's, so
    that an override passes the checks a file value does and the job
    builds one Scenario."""
    overrides = {} if args.seed is None else {"seed": args.seed}
    if mode is not None:
        overrides["mode"] = mode
    return _load(args, overrides)


def cmd_simulate(args) -> tuple:
    scen, profile, digest = _load_overridden(args)
    able = [m.party for m in scen.miners if m.power > 0]
    # A schedule holds an item a round, as a draw does, so `each_round`
    # refuses a horizon that none fits.  Every pick would name a lone
    # miner with power, so draw none for it.
    schedule = Schedule(tuple(each_round(scen, able[0])))
    if len(able) > 1:
        import numpy as np
        schedule = sample_schedule(scen, np.random.default_rng(scen.seed))
    out = play(scen, profile, schedule)
    report = Report(_base_header(args, "simulate", scen, digest))
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
    scen, profile, digest = _load_overridden(args, mode)
    eu = expected_utilities(scen, profile)
    report = Report(_base_header(args, "expect", scen, digest))
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


def cmd_dominance(args) -> tuple:
    scen, profile, digest = _load(args)
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
    # Alternatives are told apart by their parameters, not their names.
    alternatives = [p for p in policy_space(scen, key)
                    if policy_key(p) != policy_key(candidate)]
    if not alternatives:
        raise ScenarioError(
            f"validation-error(player): no policy for {player} besides "
            f"{candidate.name!r} is valid for protocol {scen.protocol!r}")
    verdict = dominance_check(scen, key, candidate, alternatives, profile)
    report = Report(_base_header(args, "dominance", digest=digest))
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
    scen, _, digest = _load(args)
    theorem = scen.rules.theorem
    if theorem is None:
        raise ScenarioError(
            "validation-error(protocol): lemma checks need 'he' or 'demba'")
    pact = theorem == "m2mba"
    verify = verify_m2mba_lemma if pact else verify_demba_lemma
    report = Report(_base_header(args, "lemmas", digest=digest))
    failed = False
    for n in scen.rules.lemmas:
        v = verify(n, scen)
        report.add(v.lemma_id, "-",
                   f"consistent={'true' if v.consistent else 'false'}",
                   f"hypothesis={v.hypothesis_holds}",
                   f"conclusion={v.conclusion_holds}")
        failed |= not v.consistent
    if pact:
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
                        f_pool=_frac(args.pool_fee, "f_pool"),
                        lambda_net=_frac(args.lambda_net, "lambda_net"),
                        alpha_risk=args.alpha_risk)
    report = Report(_base_header(args, "pool"))
    try:
        rep = pool_math(params)
        mc = pool_mc(params, args.trials, args.seed or 0) if args.trials else None
        for name in ("E_solo", "E_pool", "ratio", "Var_solo", "Var_pool"):
            report.add(name, "-", fmt_fraction(getattr(rep, name)))
    except (OverflowError, ValueError) as e:
        # OverflowError: a figure too large for a float; ValueError: a rate
        # too large for the Poisson draw, or an exact figure with more
        # digits than an int may print.
        raise ScenarioError(f"validation-error(pool): {e}") from e
    report.add("EU_solo", "-", rep.EU_solo)
    report.add("EU_pool", "-", rep.EU_pool)
    report.add("delta_U", "-", rep.delta_U)
    if mc is not None:
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
    """The round an outcome's `path` completed in, or None."""
    return _completed(out.state.redemptions, scen, path)


def _completed(red, scen: Scenario, path: str) -> Optional[int]:
    """The round `path` completed in, by the redemptions `red`, or None:
    the round the last of the redemptions that complete it on the
    scenario's protocol landed in (`ProtocolRules.completion`).  It reads
    each redemption's path and round, which the control key holds
    (`ledger.Redemptions`), so every state of one control state agrees."""
    needed = scen.rules.completion.get(path)
    if needed is None:  # the one `ttc` path a protocol may lack
        raise ScenarioError(f"validation-error(path): {scen.protocol} has "
                            "no collateral")
    rounds = []
    for cid, via in needed:
        entry = red.get(cid)
        if entry is None or via not in (None, entry[0]):
            return None
        rounds.append(entry[1])
    return max(rounds)


def ttc(scen: Scenario, path: str) -> dict:
    """Monte-Carlo rounds-to-final-transfer with a 95% half-width, over the
    scenario's Monte-Carlo trials.

    Under `_ttc_profile` every schedule completes in one round: each
    miner runs `HonestFeeMax`, whose block names its miner only as the
    fee payee, so every schedule reaches the same control state each
    round, and the control state holds each redemption's round
    (`_completed`).  So every trial completes in the round that the
    schedule pinned to the first miner with power completes in, and the
    half-width is 0.0.  `ttc` walks that one schedule (`game.walk`), with
    each round's conservation check and label rule, and reads the round
    from its final state; it draws nothing and builds no frontier.  It
    refuses a horizon whose schedule cannot be allocated, as every job
    does (`game.each_round`), and then a trial count whose trial list
    cannot be, as every Monte-Carlo pass does (`game.trial_list`)."""
    if path not in TTC_PATHS:
        raise ScenarioError(f"validation-error(path): {path!r}")
    if scen.mode[0] != "monte-carlo":
        raise ScenarioError("validation-error(mode): sampling needs "
                            f"monte-carlo, got {scen.mode!r}")
    miner = next(m.party for m in scen.miners if m.power)  # powers are >= 0
    schedule = each_round(scen, miner)
    trials = len(trial_list(scen))
    state = walk(scen, _ttc_profile(scen, path), schedule)[2]
    done = _completed(state.redemptions, scen, path)
    if done is None:
        raise ScenarioError(
            f"validation-error: {path} never completed within the horizon")
    # The integer sum and sum of squares over trials that all took `done`.
    mean, half = mean_half_width(trials * done, trials * done * done, trials)
    return {"mean": mean, "half_width": half, "trials": trials, "l": scen.l}


def cmd_ttc(args) -> tuple:
    scen, _, digest = _load_overridden(args, ("monte-carlo", args.trials))
    variant = args.variant or scen.protocol
    if variant != scen.protocol:
        raise ScenarioError("validation-error(variant): scenario protocol is "
                            f"{scen.protocol!r}")
    result = ttc(scen, args.path)
    report = Report(_base_header(args, "ttc", scen, digest))
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


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors end as every other error does, in one
    `error:` line and exit code 1 (exit code 2 means a failed verdict)."""

    def error(self, message):
        # repr() holds an argument with a line break to the one error line.
        shown = message if message.isprintable() else repr(message)
        raise ScenarioError(f"usage-error: {shown}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `arena` parser, built once: `parse_args` does not change it.
    Its `commands` map each subcommand to its own parser (`main`).  It
    declares the whole grammar: `_read_plain` reads a plain line from
    a subcommand parser's actions, and keeps no table of its own."""
    parser = _Parser(
        prog="arena",
        description="Deterministic HTLC bribery-game simulator and verifier")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    parser.commands = sub.choices

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


def _read_plain(command: argparse.ArgumentParser,
                words: list) -> Optional[argparse.Namespace]:
    """The namespace `command` parses from `words`, read from its actions
    where the line is plain, or None.

    A plain line is `--name value` pairs: each `--name` an exact option
    string of one of `command`'s store actions, given once, and no value
    that starts with `-`.  Each value goes through its action's `type`
    and `choices` as argparse takes it (`_get_value`, `_check_value`),
    and each option left out gets its action's default.  Any other line,
    a value its action refuses and a line without a required option get
    None, so that the parser reads them, with its help and its errors."""
    if len(words) % 2:
        return None
    options = command._option_string_actions
    values = {}
    for name, word in zip(words[::2], words[1::2]):
        action = options.get(name)
        if (type(action) is not argparse._StoreAction
                or action.dest in values or word.startswith("-")):
            return None
        try:
            value = word if action.type is None else action.type(word)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    read = {}  # in the parser's order, as argparse fills a namespace
    for action in command._actions:
        if action.dest in values:
            read[action.dest] = values[action.dest]
        elif action.required:
            return None
        elif action.default is not argparse.SUPPRESS:
            read[action.dest] = action.default
    return argparse.Namespace(**read)


def main(argv=None) -> int:
    """Run one `arena` job on `argv` (default `sys.argv[1:]`); returns its
    exit code.  A line that starts with a subcommand is that subcommand's
    to read, as the top-level parser would pass it on whole: a plain line
    is read from the subcommand parser's actions (`_read_plain`), and the
    subcommand parser reads any other, with its help and usage errors.
    The top-level parser reads every line that does not start with a
    subcommand, for its own errors and help."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        parser = build_parser()
        command = parser.commands.get(argv[0]) if argv else None
        if command is None:
            args = parser.parse_args(argv)
        else:
            args = (_read_plain(command, argv[1:])
                    or command.parse_args(argv[1:]))
            args.subcommand = argv[0]
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
