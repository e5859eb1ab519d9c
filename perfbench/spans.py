"""Layer spans and counters, recorded from outside the engine.

`Tracer.install()` replaces the module attributes and policy methods that
the engine's layers call each other through (for example
`htlc_arena.game.apply_block`, which `play` looks up at call time) with
wrappers that record a span: name, start, end, parent span and unit id.
`uninstall()` puts every original back.  Spans live in compact arrays
until the run ends; self time is a span's duration minus the time its
child spans cover.  Nothing is written to stdout, so CLI reports stay
byte-identical.

`core` gets no span: credit, debit and check_amount cost well under a
microsecond, so their cost stays inside ledger self time.  Bookkeeping
that the wrappers do for state and schedule counts runs with the span
clock paused, so it shows in the tracing overhead but not in any span.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

from htlc_arena import agents, analysis, game, ledger, runner

VERIFIERS = ("verify_m2mba_lemma", "verify_demba_lemma", "verify_theorem_m2mba",
             "verify_demba")
BUILDERS = ("build_naive_htlc", "build_mad_htlc", "build_he_htlc",
            "build_demba")
MINER_POLICIES = tuple(cls for cls in vars(agents).values()
                       if isinstance(cls, type)
                       and issubclass(cls, agents.MinerPolicy))
PARTY_POLICIES = tuple(cls for cls in vars(agents).values()
                       if isinstance(cls, type)
                       and issubclass(cls, agents.PartyPolicy))
#: Miner policies with a block-building rule of their own.
POLICY_CLASSES = tuple(cls for cls in MINER_POLICIES
                       if cls is not agents.MinerPolicy
                       and "build_block" in vars(cls))


def span_targets() -> list:
    """(owner, attribute, span name) for every wrapped call site."""
    targets = [
        (game, "apply_block", "ledger.apply_block"),
        (game, "broadcast", "ledger.broadcast"),
        (agents, "broadcast", "ledger.broadcast"),
        (game, "play", "game.play"),
        (runner, "play", "game.play"),
        (game, "build_genesis", "game.build_genesis"),
        (game, "expected_utilities", "game.expected_utilities"),
        (analysis, "expected_utilities", "game.expected_utilities"),
        (runner, "expected_utilities", "game.expected_utilities"),
        (analysis, "dominance_check", "game.dominance_check"),
        (runner, "dominance_check", "game.dominance_check"),
        (game, "sample_schedule", "game.sample_schedule"),
        (runner, "sample_schedule", "game.sample_schedule"),
        (runner, "main", "runner.main"),
        (runner, "load_scenario", "runner.load_scenario"),
        (runner.Report, "render", "runner.render"),
    ]
    targets += [(game, name, "contracts.builders") for name in BUILDERS]
    targets += [(mod, name, "analysis.verify") for mod in (analysis, runner)
                for name in VERIFIERS]
    for cls in POLICY_CLASSES:
        targets.append((cls, "build_block",
                        f"agents.build_block.{cls.__name__}"))
    for cls in MINER_POLICIES + PARTY_POLICIES:
        if "setup" in vars(cls):
            targets.append((cls, "setup", "agents.setup"))
    for cls in PARTY_POLICIES:
        if "broadcasts" in vars(cls):
            targets.append((cls, "broadcasts", "agents.broadcasts"))
    return targets


#: (owner, attribute, counter name) for call sites that are only counted.
COUNT_TARGETS = [
    (agents, "validate_tx", "ledger.validate_tx.calls"),
    (ledger, "bribery_contract_step", "contracts.bribery_step.calls"),
]


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.unit_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {name: 0 for _, _, name in COUNT_TARGETS}
        self.counts["game.schedules_enumerated"] = 0
        self.distinct_states = 0
        self.distinct_schedules = 0
        self.unit = -1
        self._stack = [-1]
        self._scopes: list = []
        self._paused = 0.0
        self._saved: list = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        hooks = {"ledger.apply_block": self._note_state,
                 "game.sample_schedule": self._note_schedule}
        for owner, attr, name in span_targets():
            scoped = name == "game.expected_utilities"
            self._patch(owner, attr, self._span(
                getattr(owner, attr), name, hooks.get(name), scoped))
        for owner, attr, name in COUNT_TARGETS:
            self._patch(owner, attr, self._counter(getattr(owner, attr), name))
        self._patch(game, "enumerate_schedules",
                    self._counting_generator(game.enumerate_schedules,
                                             "game.schedules_enumerated"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    # -- wrappers ---------------------------------------------------------

    def exclude(self, seconds: float) -> None:
        """Leave `seconds` just spent outside the program out of all spans."""
        self._paused += seconds

    def _clock(self) -> float:
        return time.perf_counter() - self._paused

    def _span(self, fn, name, after=None, scoped=False):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, units = self.name_id, self.parent, self.unit_id
        starts, ends, stack, clock = self.start, self.end, self._stack, self._clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            units.append(self.unit)
            ends.append(0.0)
            stack.append(i)
            if scoped:
                self._push_scope()
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                if scoped:
                    self._pop_scope()
            if after is not None:
                paused, t0 = self._paused, time.perf_counter()
                after(result)
                # Any probe that interrupted `after` is inside this interval.
                self._paused = paused + time.perf_counter() - t0
            return result
        return wrapper

    def _counter(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _counting_generator(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item
        return wrapper

    # -- distinct states and schedules, per expectation or per unit --------

    def begin_unit(self, unit: int) -> None:
        self.unit = unit
        self._push_scope()

    def end_unit(self) -> None:
        self._pop_scope()
        self.unit = -1

    def _push_scope(self) -> None:
        self._scopes.append((set(), set()))

    def _pop_scope(self) -> None:
        states, schedules = self._scopes.pop()
        self.distinct_states += len(states)
        self.distinct_schedules += len(schedules)

    def _note_state(self, state) -> None:
        if self._scopes:
            self._scopes[-1][0].add((state.height, state.snapshot_key()))

    def _note_schedule(self, schedule) -> None:
        if self._scopes:
            self._scopes[-1][1].add(schedule.miners)

    # -- results ----------------------------------------------------------

    def arrays(self) -> dict:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "unit_id": np.frombuffer(self.unit_id, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def metrics(self) -> dict:
        """Per-layer metrics: counts, mean µs per call, self times, ratios."""
        a = self.arrays()
        name_id, parent = a["name_id"].astype(np.int64), a["parent"]
        dur = a["end"] - a["start"]
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_time = dur - covered

        def ids(pred):
            return [i for i, n in enumerate(self.names) if pred(n)]

        def mask(pred):
            return np.isin(name_id, ids(pred))

        def named(name):
            return mask(lambda n: n == name)

        def calls(m):
            return int(m.sum())

        def mean_us(m, values=dur):
            return float(values[m].mean() * 1e6) if m.any() else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        block = mask(lambda n: n.startswith("agents.build_block."))
        parent_is_block = np.zeros_like(block)
        parent_is_block[has_parent] = block[parent[has_parent]]
        top_block = block & ~parent_is_block
        apply_block, play = named("ledger.apply_block"), named("game.play")
        expect, verify = named("game.expected_utilities"), named("analysis.verify")
        in_expect = np.zeros_like(play)
        in_expect[has_parent] = expect[parent[has_parent]]
        sample = named("game.sample_schedule")
        builders = named("contracts.builders")
        out = {
            "ledger.apply_block.calls": calls(apply_block),
            "ledger.apply_block.us": mean_us(apply_block),
            "ledger.apply_block.share_of_play": ratio(
                float(dur[apply_block].sum()), float(dur[play].sum())),
            "ledger.broadcast.us": mean_us(named("ledger.broadcast")),
            "ledger.validate_tx.calls": self.counts["ledger.validate_tx.calls"],
            "ledger.distinct_state_frac": ratio(self.distinct_states,
                                                calls(apply_block)),
            "game.play.calls": calls(play),
            "game.play.us": mean_us(play),
            "game.play.self_us": mean_us(play, self_time),
            "game.expected_utilities.calls": calls(expect),
            "game.expected_utilities.self_s": float(self_time[expect].sum()),
            "game.plays_per_expectation": ratio(calls(play & in_expect),
                                                calls(expect)),
            "game.schedules_enumerated": self.counts["game.schedules_enumerated"],
            "game.dominance_check.calls": calls(named("game.dominance_check")),
            "game.sample_schedule.us": mean_us(sample),
            "game.distinct_schedule_frac": ratio(self.distinct_schedules,
                                                 calls(sample)),
            "game.build_genesis.calls": calls(named("game.build_genesis")),
            "game.build_genesis.us": mean_us(named("game.build_genesis")),
            "contracts.builders.us": ratio(float(dur[builders].sum()) * 1e6,
                                           calls(play)),
            "contracts.bribery_step.calls":
                self.counts["contracts.bribery_step.calls"],
            "agents.build_block.calls": calls(top_block),
            "agents.build_block.us": mean_us(top_block),
            "agents.broadcasts.us": mean_us(named("agents.broadcasts")),
            "agents.setup.us": mean_us(named("agents.setup")),
            "analysis.verify.calls": calls(verify),
            "analysis.verify.self_s": float(self_time[verify].sum()),
            "analysis.expectations_per_verdict": ratio(calls(expect),
                                                       calls(verify)),
            "runner.main.self_ms": mean_us(named("runner.main"), self_time) / 1e3,
            "runner.load_scenario.ms": mean_us(named("runner.load_scenario")) / 1e3,
            "runner.render.ms": mean_us(named("runner.render")) / 1e3,
        }
        for cls in POLICY_CLASSES:
            name = f"agents.build_block.{cls.__name__}"
            out[f"{name}.us"] = mean_us(named(name))
        return out


def metric_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    for suffix, unit in ((".calls", "count"), (".us", "us"), ("_us", "us"),
                         ("_s", "s"), (".ms", "ms"), ("_ms", "ms"),
                         ("schedules_enumerated", "count")):
        if name.endswith(suffix):
            return unit
    return "ratio"
