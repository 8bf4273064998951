"""Uniform result records for numerical and combinatorial checks.

Every check in the package reports through :class:`CheckReport`, which
serializes to a stable JSON object::

    {"check": ..., "parameters": {...}, "max_deviation": ..., "witness": ...,
     "pass": true/false}

Field order is fixed and no timestamps are recorded, so identical runs produce
byte-identical serializations.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars/arrays, complex numbers and tuples to JSON types."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, complex):
        return [value.real, value.imag]
    if hasattr(value, "tolist"):  # a numpy scalar or array
        return _jsonable(value.tolist())
    return value


@dataclass
class CheckReport:
    """Outcome of one named check.

    `max_deviation` is None for purely combinatorial checks; `witness`
    describes the worst or first offending sample when there is one.
    """

    check: str
    parameters: dict = field(default_factory=dict)
    max_deviation: float | None = None
    witness: dict | None = None
    passed: bool = True

    def to_dict(self) -> dict:
        out: dict[str, Any] = {
            "check": self.check,
            "parameters": _jsonable(self.parameters),
            "max_deviation": _jsonable(self.max_deviation),
        }
        if self.witness is not None:
            out["witness"] = _jsonable(self.witness)
        out["pass"] = bool(self.passed)
        return out
