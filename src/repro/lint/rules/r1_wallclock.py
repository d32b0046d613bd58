"""R1: no wall-clock or ambient-nondeterminism sources in simulation code.

Simulated time comes from :class:`repro.sim.engine.Engine.now` and all
randomness from seeded :mod:`numpy` streams (see R2); any call that
reads the host's clock or an OS entropy source makes a run depend on
when/where it executed and silently breaks bit-identical seeded replay.
Reading the process environment is a hidden input of the same kind:
configuration arrives as explicit arguments, and the one read, at the
CLI boundary, carries an inline allow.
Monotonic *profiling* clocks (``time.perf_counter``, ``time.monotonic``,
``time.process_time``) are allowed: they measure the wall cost of a run
without feeding its outcome.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

#: Exact banned call targets (resolved through import aliases).
_BANNED = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "time.strftime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

#: Environment reads: ambient configuration that a run's spec never records.
_ENV_READS = frozenset({"os.getenv", "os.environ.get"})

#: Any call into these modules is banned (the stdlib global RNG and the
#: OS entropy pool have no seedable, named-stream discipline).
_BANNED_MODULE_PREFIXES = ("random.", "secrets.")


@register
class WallClockRule(Rule):
    rule_id = "R1"
    name = "no-wall-clock"
    summary = "no wall-clock, environment or ambient RNG reads (time.time, random.*, ...)"
    invariant = "bit-identical seeded replay: outcomes depend only on (seed, config)"
    scope = ()  # the whole tree: simulation code must never read the host clock

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = ctx.qualified_name(node.func)
            if qualified is None:
                continue
            if qualified in _BANNED:
                yield ctx.finding(
                    self.rule_id,
                    node,
                    f"call to {qualified}() is nondeterministic; use engine.now "
                    "for simulated time or time.perf_counter() for wall profiling",
                )
            elif qualified in _ENV_READS:
                yield ctx.finding(
                    self.rule_id,
                    node,
                    f"call to {qualified}() reads ambient configuration; take the "
                    "setting as an explicit argument",
                )
            elif qualified.startswith(_BANNED_MODULE_PREFIXES):
                yield ctx.finding(
                    self.rule_id,
                    node,
                    f"call to {qualified}() uses an unseeded global RNG; draw "
                    "from a named stream (repro.sim.rng.RngRegistry) instead",
                )
