"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "NehariError",
    "DomainError",
    "ConfigError",
    "BracketError",
    "ProjectionError",
    "SeedingError",
]


class NehariError(Exception):
    """Base class for package errors."""


class DomainError(NehariError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(NehariError):
    """Invalid configuration, addressed by section and key."""

    def __init__(self, section: str, key: str, message: str):
        self.section = section
        self.key = key
        self.message = message
        super().__init__(f"[{section}] {key}: {message}")


class BracketError(NehariError):
    """A root search walked out of the float range before its sign change."""


class _Diagnosed(NehariError):
    """An error that carries the diagnosis of the ray it failed on.

    ``diagnosis`` may be given as a callable that computes it; it is then
    called when the attribute is first read, so failures that nobody
    inspects cost nothing.
    """

    def __init__(self, message: str, diagnosis=None):
        super().__init__(message)
        self._diagnosis = diagnosis

    @property
    def diagnosis(self):
        if callable(self._diagnosis):
            self._diagnosis = self._diagnosis()
        return self._diagnosis


class ProjectionError(_Diagnosed):
    """The requested Nehari branch is not reachable along this ray.

    ``reason`` is the message without the branch: why the ray misses it.
    """

    def __init__(self, message: str, diagnosis=None, reason: str = ""):
        super().__init__(message, diagnosis)
        self.reason = reason


class SeedingError(_Diagnosed):
    """No admissible seed field found after narrowing."""
