"""Reversible attribute replacement for wrapping program functions from
outside the program."""

from __future__ import annotations

import importlib

_MISSING = object()


def resolve(target: str):
    """``"pkg.module:Class.attr"`` or ``"pkg.module:func"`` ->
    ``(owner, attr name, current function)``.

    Raises ``LookupError`` when the module, class or attribute is gone.
    """
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(f"{target}: module not importable ({exc})") from exc
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            raise LookupError(f"{target}: {name} not found")
    if isinstance(owner, type):
        # Only wrap what the class defines itself: wrapping an inherited
        # attribute would silently cover every sibling subclass too.
        func = owner.__dict__.get(attr)
    else:
        func = getattr(owner, attr, None)
    if not callable(func):
        raise LookupError(f"{target}: no function {attr!r}")
    return owner, attr, func


class Patches:
    """A stack of attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> None:
        old = owner.__dict__.get(attr, _MISSING) if isinstance(owner, type) \
            else getattr(owner, attr, _MISSING)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, new)

    def undo(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    def __len__(self) -> int:
        return len(self._undo)
