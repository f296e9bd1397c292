"""Registry of storage schemes by name."""

from __future__ import annotations

import inspect

from repro.errors import StorageError, XmlRelError
from repro.relational.database import Database
from repro.storage.base import MappingScheme
from repro.storage.binary import BinaryScheme
from repro.storage.dewey import DeweyScheme
from repro.storage.edge import EdgeScheme
from repro.storage.inlining import InliningScheme
from repro.storage.interval import IntervalScheme
from repro.storage.universal import UniversalScheme
from repro.storage.xrel import XRelScheme

_SCHEMES: dict[str, type[MappingScheme]] = {
    cls.name: cls
    for cls in (
        EdgeScheme,
        BinaryScheme,
        UniversalScheme,
        IntervalScheme,
        DeweyScheme,
        XRelScheme,
        InliningScheme,
    )
}


def available_schemes() -> list[str]:
    """Names of all registered storage schemes."""
    return list(_SCHEMES)


def scheme_class(name: str) -> type[MappingScheme]:
    """The scheme class registered under *name*."""
    try:
        return _SCHEMES[name]
    except KeyError:
        raise XmlRelError(
            f"unknown scheme {name!r}; available: "
            + ", ".join(available_schemes())
        ) from None


def check_scheme_kwargs(name: str, kwargs: dict) -> None:
    """Raise before anything is opened or written when scheme *name* is
    unknown or does not take every keyword of *kwargs*: a store opened
    with a misspelt option must leave no file behind."""
    parameters = inspect.signature(scheme_class(name)).parameters
    unknown = sorted(set(kwargs) - set(list(parameters)[1:]))
    if unknown:
        raise StorageError(
            f"scheme {name!r} takes no keyword argument(s): "
            + ", ".join(unknown)
        )


def create_scheme(name: str, db: Database, **kwargs) -> MappingScheme:
    """Instantiate scheme *name* over *db*.

    ``kwargs`` are scheme-specific (the inlining scheme takes ``dtd`` and
    ``strategy``).
    """
    return scheme_class(name)(db, **kwargs)
