"""Serve knobs: each ``repro serve`` flag and scenario-spec key, described once.

:mod:`repro.serve.scenario` says where knobs are declared and how to add
one.  A knob's ``bound`` is a numeric condition (``">= 0"``, ``"> 1"`` or
an interval such as ``"[0, 1)"``), a tuple of allowed strings, or a
callable that raises ``ValueError``/``KeyError`` for a bad value.  A
``float`` knob must also be finite: ``inf`` passes ``x >= 0`` and would
reach the report as non-standard JSON.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Dict, Iterable, Optional, Sequence, Tuple

_NOUNS = {int: "integer", float: "number", bool: "boolean", str: "string"}
#: the Python types each kind accepts (a bool is never an int here)
_TYPES = {int: int, float: (int, float), bool: bool, str: str}
#: numeric bounds that read better as a word
_WORDS = {">= 0": "non-negative", "> 0": "positive"}


@dataclasses.dataclass(frozen=True)
class Knob:
    """One serve knob: spec key, type, default, bound, CLI flag and help."""

    name: str
    kind: type
    default: object
    bound: object = None
    #: the ``repro serve`` option; ``None`` for a spec-only knob
    flag: Optional[str] = None
    help: str = ""
    #: the parsed attribute, when not the one argparse derives from the flag
    dest: Optional[str] = None
    #: a non-empty list of values rather than one value
    many: bool = False

    @property
    def arg_dest(self) -> str:
        return self.dest or self.flag.lstrip("-").replace("-", "_")

    def check(self, value: object, path: str) -> None:
        """Raise ``ValueError`` naming ``path`` unless ``value`` is within
        the bound (and finite, for a ``float`` knob)."""
        bound = self.bound
        if self.kind is float and not math.isfinite(value):
            raise ValueError(f"{path} must be finite, got {value!r}")
        if callable(bound):
            try:
                bound(value)
            except (KeyError, ValueError) as error:
                raise ValueError(f"{path}: {str(error).strip(chr(34))}") from None
        elif isinstance(bound, tuple) and value not in bound:
            raise ValueError(
                f"{path} must be one of: {', '.join(bound)}; got {value!r}")
        elif isinstance(bound, str) and not _within(value, bound):
            raise ValueError(
                f"{path} must be {_WORDS.get(bound, bound)}, got {value!r}")

    def read(self, value: object, path: str) -> object:
        """``value`` coerced strictly to the knob's type, then checked."""
        if value is None and self.default is None:
            return None
        if not self.many:
            return self._read_one(value, path)
        if isinstance(value, list) and value:
            try:
                return [self._read_one(item, path) for item in value]
            except ValueError:
                pass
        items = " ".join(filter(None, (_WORDS.get(self.bound),
                                       _NOUNS[self.kind] + "s")))
        raise ValueError(
            f"{path} must be a non-empty list of {items}, got {value!r}")

    def _read_one(self, value: object, path: str) -> object:
        if (not isinstance(value, _TYPES[self.kind])
                or (isinstance(value, bool) and self.kind is not bool)):
            noun = _NOUNS[self.kind]
            raise ValueError(f"{path} must be {'an' if noun[0] == 'i' else 'a'} "
                             f"{noun}, got {value!r}")
        value = self.kind(value)
        self.check(value, path)
        return value


def _within(value: float, bound: str) -> bool:
    """Whether ``value`` meets a numeric bound (NaN never does)."""
    if bound[0] in "[(":
        low, high = (float(end) for end in bound[1:-1].split(","))
        above = low <= value if bound[0] == "[" else low < value
        return above and (value <= high if bound[-1] == "]" else value < high)
    op, limit = bound.split()
    return value >= float(limit) if op == ">=" else value > float(limit)


def knob(default: object, bound: object = None, flag: Optional[str] = None,
         help: str = "", *, kind: Optional[type] = None,
         dest: Optional[str] = None):
    """A dataclass field carrying its :class:`Knob` (named later, by
    :func:`knobs_of`, after the field)."""
    described = Knob("", kind or type(default), default, bound, flag, help,
                     dest)
    return dataclasses.field(default=default, metadata={"knob": described})


@functools.lru_cache(maxsize=None)
def knobs_of(cls: type) -> Tuple[Knob, ...]:
    """The knobs of a config dataclass, in field order."""
    return tuple(dataclasses.replace(field.metadata["knob"], name=field.name)
                 for field in dataclasses.fields(cls))


def check_knobs(config: object) -> None:
    """The bound check every config dataclass's ``__post_init__`` runs."""
    for described in knobs_of(type(config)):
        value = getattr(config, described.name)
        if value is not None:
            described.check(value, described.name)


def read_block(block: object, knobs: Sequence[Knob], label: str,
               also_known: Iterable[str] = ()) -> Dict[str, object]:
    """Each knob's value read from spec block ``block``, or its default.

    A key that is neither a knob nor in ``also_known`` is an error (a
    typo'd knob must not silently no-op).  ``label`` prefixes the key
    paths errors name, except for ``"spec"``, the top level.
    """
    if not isinstance(block, dict):
        raise ValueError(f"{label} must be an object")
    known = {described.name for described in knobs} | set(also_known)
    unknown = sorted(set(block) - known)
    if unknown:
        raise ValueError(f"unknown {label} key(s): {', '.join(unknown)}; "
                         f"known: {', '.join(sorted(known))}")
    prefix = "" if label == "spec" else f"{label}."
    return {k.name: k.read(block[k.name], prefix + k.name) if k.name in block
            else k.default for k in knobs}
