"""Rule base class and the global rule registry.

Rules self-register at import time via :func:`register`; importing
:mod:`repro.lint.rules` pulls in every built-in rule module.  Each rule
declares:

``rule_id``
    Stable identifier (``R1``...) used in findings, inline suppressions
    and config allowlists.
``scope``
    Module-path prefixes (``repro/sim``, ...) the rule applies to inside
    the package.  Empty means the whole tree.  Files *outside* a
    ``repro`` package (e.g. test fixtures) are always in scope, so
    fixture snippets can exercise scoped rules.
``requires_project``
    Whole-program rules (R8-R11) set this; they run once per analyzer
    pass against a :class:`~repro.lint.project.ProjectContext` (built
    only in ``--project`` mode) instead of once per file.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from repro.lint.context import FileContext
from repro.lint.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.project import ProjectContext


class Rule:
    """One static invariant check over a parsed file (or whole program)."""

    rule_id: str = ""
    name: str = ""
    summary: str = ""
    #: The dynamic guarantee this rule protects (shown by ``--list-rules``).
    invariant: str = ""
    scope: Tuple[str, ...] = ()
    #: Whole-program rules override :meth:`check_project` instead of
    #: :meth:`check` and only run in ``--project`` mode.
    requires_project: bool = False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def check_project(self, project: "ProjectContext") -> Iterator[Finding]:
        raise NotImplementedError

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_scope(self.scope)


_REGISTRY: Dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding one instance of ``cls`` to the registry."""
    rule = cls()
    if not rule.rule_id:
        raise ValueError(f"{cls.__name__} has no rule_id")
    if rule.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.rule_id!r}")
    _REGISTRY[rule.rule_id] = rule
    return cls


def _rule_sort_key(rule_id: str) -> Tuple[int, str]:
    """Numeric ordering for ``R<n>`` ids (plain lexicographic ordering
    would put R10 before R2)."""
    digits = rule_id[1:]
    if rule_id.startswith("R") and digits.isdigit():
        return (int(digits), rule_id)
    return (1_000_000, rule_id)


def all_rules() -> List[Rule]:
    """Every registered rule, ordered by id."""
    _load_builtin_rules()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY, key=_rule_sort_key)]


def get_rules(rule_ids: Optional[Iterable[str]] = None) -> List[Rule]:
    """The selected rules (all when ``rule_ids`` is ``None``)."""
    rules = all_rules()
    if rule_ids is None:
        return rules
    wanted: Sequence[str] = list(rule_ids)
    unknown = sorted(set(wanted) - {rule.rule_id for rule in rules})
    if unknown:
        known = ", ".join(rule.rule_id for rule in rules)
        raise KeyError(f"unknown rule ids {unknown!r} (known: {known})")
    return [rule for rule in rules if rule.rule_id in set(wanted)]


def _load_builtin_rules() -> None:
    # Imported lazily to avoid a registry/rules import cycle.
    import repro.lint.rules  # noqa: F401  (import side effect: registration)
