"""Desk-scale resource limits.

Every exhaustive routine checks its workload against these bounds and raises
:class:`~magball.errors.ResourceLimitError` instead of silently degrading to a
partial answer.  Defaults can be overridden by the ``MAGBALL_LIMITS``
environment variable (a JSON object mapping field names to positive integers) or
programmatically via :func:`set_limits`.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass, fields, replace

from .errors import DomainError, ResourceLimitError

ENV_VAR = "MAGBALL_LIMITS"


@dataclass(frozen=True)
class Limits:
    group_order: int = 1 << 24
    field_size: int = 1 << 20
    enumeration: int = 10**6
    pairs: int = 10**7
    cosets: int = 10**7
    syndrome_table: int = 10**6


def parse_limits(raw: str, source: str, base: Limits) -> Limits:
    """``base`` with the overrides of the JSON object ``raw`` applied.

    Keys must be :class:`Limits` fields and values positive integers; anything
    else raises :class:`~magball.errors.DomainError` naming ``source``.
    """
    try:
        overrides = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise DomainError(f"cannot parse {source}: {exc}") from exc
    if not isinstance(overrides, dict):
        raise DomainError(f"{source} must be a JSON object, got {overrides!r}")
    unknown = set(overrides) - {f.name for f in fields(Limits)}
    if unknown:
        raise DomainError(f"unknown {source} keys: {sorted(unknown)}")
    for key, value in overrides.items():
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise DomainError(f"{source} {key} must be a positive integer, got {value!r}")
    return replace(base, **overrides)


def _from_env() -> Limits:
    raw = os.environ.get(ENV_VAR)
    return parse_limits(raw, ENV_VAR, Limits()) if raw else Limits()


_current: Limits | None = None


def get_limits() -> Limits:
    global _current
    if _current is None:
        _current = _from_env()
    return _current


def set_limits(limits: Limits) -> None:
    global _current
    _current = limits


@contextlib.contextmanager
def limits_overridden(**kwargs: int):
    """Temporarily replace selected limits (used by tests and the CLI)."""
    global _current
    previous = get_limits()
    _current = replace(previous, **kwargs)
    try:
        yield _current
    finally:
        _current = previous


def check(kind: str, value: int) -> None:
    """Raise unless ``value`` fits under the limit named ``kind``."""
    bound = getattr(get_limits(), kind)
    if value > bound:
        raise ResourceLimitError(f"{kind} workload {value} exceeds limit {bound}")
