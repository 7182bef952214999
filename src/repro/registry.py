"""One name-keyed registry with aliases, shared by backends and decoders.

:mod:`repro.backends` and :mod:`repro.decoders` each keep one
:class:`Registry` instance; their ``register_*``/``get_*``/``*_choices``
functions delegate to it, so alias resolution, shadowing rules and the
unknown-name error live in one place.
"""

from __future__ import annotations

from typing import Generic, Iterable, TypeVar

T = TypeVar("T")


class Registry(Generic[T]):
    """Entries keyed by canonical name, plus aliases resolving to them.

    Re-registering a name replaces its entry (tests swap in instrumented
    implementations).  An alias may not shadow a canonical name — its
    own entry's included — nor be rebound to a different name, and a
    name may not reuse an existing alias.  A rejected registration
    leaves the registry unchanged.
    """

    def __init__(self, kind: str):
        #: Label used in error messages ("sampler backend", "decoder").
        self.kind = kind
        self._entries: dict[str, T] = {}
        self._aliases: dict[str, str] = {}

    def register(self, name: str, entry: T, aliases: Iterable[str] = ()) -> T:
        """Register ``entry`` under ``name`` (plus optional aliases)."""
        aliases = tuple(aliases)
        if self._aliases.get(name, name) != name:
            raise ValueError(
                f"name {name!r} is already an alias for "
                f"{self._aliases[name]!r}"
            )
        for alias in aliases:
            if alias == name or alias in self._entries:
                raise ValueError(
                    f"alias {alias!r} shadows a registered {self.kind}"
                )
            if self._aliases.get(alias, name) != name:
                raise ValueError(
                    f"alias {alias!r} already points to "
                    f"{self._aliases[alias]!r}"
                )
        self._entries[name] = entry
        for alias in aliases:
            self._aliases[alias] = name
        return entry

    def canonical_name(self, name: str) -> str:
        """Resolve a name or alias to its canonical name.

        Raises ``KeyError`` naming every known name and alias on an
        unknown name.
        """
        resolved = self._aliases.get(name, name)
        if resolved not in self._entries:
            known = ", ".join(self.choices())
            raise KeyError(f"unknown {self.kind} {name!r} (known: {known})")
        return resolved

    def get(self, name: str) -> T:
        """Look up an entry by canonical name or alias."""
        return self._entries[self.canonical_name(name)]

    def names(self) -> tuple[str, ...]:
        """Sorted canonical names of every registered entry."""
        return tuple(sorted(self._entries))

    def choices(self) -> tuple[str, ...]:
        """Sorted canonical names plus aliases (for CLI ``choices=``)."""
        return tuple(sorted(set(self._entries) | set(self._aliases)))
