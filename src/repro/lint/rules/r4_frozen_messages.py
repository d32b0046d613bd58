"""R4: message dataclasses are frozen and never mutated post-construction.

A :class:`repro.net.messages.Message` is shared state the moment it is
handed to the network: the sender keeps a reference for correlation
(``msg_id``), the delivery callback holds it in flight, and the receiver
reads it from its inbox.  Mutating any copy after construction is a race
against simulated time -- the historical bug class here was stamping a
send time onto the *sender's* instance, visible retroactively to anyone
who kept the reference.  Two checks enforce immutability:

* every ``@dataclass`` in ``net/messages.py`` (and any dataclass
  subclassing ``Message`` elsewhere) must pass ``frozen=True``;
* no attribute store targets the message-metadata field ``msg_id`` on
  anything but ``self`` -- catching mutation attempts in files that
  only *use* messages.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

#: Message metadata fields nobody may assign to outside the class itself.
_PROTECTED_FIELDS = frozenset({"msg_id"})

#: Base-class names marking a dataclass as a network message.
_MESSAGE_BASES = frozenset({"Message"})


def _dataclass_decorator(node: ast.ClassDef) -> Optional[ast.expr]:
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Name) and decorator.id == "dataclass":
            return decorator
        if (
            isinstance(decorator, ast.Call)
            and isinstance(decorator.func, ast.Name)
            and decorator.func.id == "dataclass"
        ):
            return decorator
        if isinstance(decorator, ast.Attribute) and decorator.attr == "dataclass":
            return decorator
    return None


def _is_frozen(decorator: ast.expr) -> bool:
    if not isinstance(decorator, ast.Call):
        return False  # bare @dataclass defaults to frozen=False
    for keyword in decorator.keywords:
        if keyword.arg == "frozen":
            return isinstance(keyword.value, ast.Constant) and bool(
                keyword.value.value
            )
    return False


@register
class FrozenMessageRule(Rule):
    rule_id = "R4"
    name = "frozen-messages"
    summary = "message dataclasses are frozen=True and metadata is never reassigned"
    invariant = (
        "messages are immutable value objects: what the sender built is "
        "exactly what every holder of the reference observes, forever"
    )
    scope = ()  # whole tree: mutation through a reference can happen anywhere

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        in_messages_module = bool(
            ctx.module_path and ctx.module_path.endswith("net/messages.py")
        )
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                decorator = _dataclass_decorator(node)
                if decorator is None:
                    continue
                is_message = in_messages_module or any(
                    isinstance(base, ast.Name) and base.id in _MESSAGE_BASES
                    for base in node.bases
                )
                if is_message and not _is_frozen(decorator):
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        f"message dataclass {node.name} must declare "
                        "frozen=True (messages are shared the moment they "
                        "are sent)",
                    )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if not isinstance(target, ast.Attribute):
                        continue
                    if target.attr not in _PROTECTED_FIELDS:
                        continue
                    base = target.value
                    if isinstance(base, ast.Name) and base.id == "self":
                        continue
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        f"post-construction write to message field "
                        f"'.{target.attr}'; messages are frozen -- build the "
                        "updated value with dataclasses.replace() instead",
                    )
