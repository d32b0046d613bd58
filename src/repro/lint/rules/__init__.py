"""Built-in analyzer rules.

Importing this package registers every rule module with
:mod:`repro.lint.registry`.  Adding a rule = adding a module here with a
``@register``-decorated :class:`~repro.lint.registry.Rule` subclass and
importing it below.  Rule IDs are never reused or renumbered, because
inline suppressions cite them; retired IDs are listed in
``docs/LINTING.md``.
"""

from repro.lint.rules import (  # noqa: F401  (import side effect: registration)
    r1_wallclock,
    r2_rng_streams,
    r3_set_iteration,
    r4_frozen_messages,
    r5_ledger_mutation,
    r6_callback_names,
    r8_layering,
    r9_protocol,
    r10_stream_graph,
    r11_future_timeouts,
)

__all__ = [
    "r1_wallclock",
    "r2_rng_streams",
    "r3_set_iteration",
    "r4_frozen_messages",
    "r5_ledger_mutation",
    "r6_callback_names",
    "r8_layering",
    "r9_protocol",
    "r10_stream_graph",
    "r11_future_timeouts",
]
