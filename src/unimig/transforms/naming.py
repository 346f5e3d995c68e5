"""Deterministic name derivation used by the mapping rules."""

from __future__ import annotations

_VOWELS = "aeiou"


def plural(name: str) -> str:
    """Naive English pluralization: unchanged when already ending in ``s``,
    ``y`` after a consonant becomes ``ies``, otherwise append ``s``."""
    if not name:
        raise ValueError("cannot pluralize an empty name")
    if name.endswith("s"):
        return name
    if name.endswith("y") and len(name) > 1 and name[-2].lower() not in _VOWELS:
        return name[:-1] + "ies"
    return name + "s"


def unique_name(candidate: str, taken: set[str]) -> str:
    """``candidate`` or the first ``candidate_<i>`` not in ``taken``; collisions
    are logged since they usually point at an unusual source schema."""
    if candidate not in taken:
        return candidate
    i = 1
    while f"{candidate}_{i}" in taken:
        i += 1
    import logging  # only here, so that importing this module does not load it
    logging.getLogger(__name__).warning("name %r already taken, using %r",
                                        candidate, f"{candidate}_{i}")
    return f"{candidate}_{i}"
