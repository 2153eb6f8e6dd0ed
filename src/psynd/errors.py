"""Exception types shared across the package, and ``take``, the reader of config values,
with ``refuse_unread``, which names the config keys that nothing read."""

import reprlib


class PsyndError(Exception):
    """Base class for all package-specific errors."""


class EmptySetError(PsyndError, ValueError):
    """Operation requires a nonempty set."""


class BadBoundError(PsyndError, ValueError):
    """A bound parameter is out of its allowed range."""


class BadEpsilonError(PsyndError, ValueError):
    """Epsilon must be strictly positive."""


class NoRowError(PsyndError, LookupError):
    """No row of the grid admits a witness at the given parameters."""


class NotVanishingError(PsyndError, ValueError):
    """Polynomial family member does not vanish at 0."""


class NotIntegralError(PsyndError, ValueError):
    """Polynomial does not take integer values on the integers."""


class DegreeTooLowError(PsyndError, ValueError):
    """Polynomial degree below what the operation requires."""


class NotNormalFormError(PsyndError, ValueError):
    """Polynomial family does not satisfy the normal-form condition."""


class WindowExhaustedError(PsyndError, ValueError):
    """A windowed symbolic word ran out of letters for the request."""


class RadiusExhaustedError(PsyndError, ValueError):
    """Block truncation radius too small for the requested action."""


class ConfigError(PsyndError, ValueError):
    """A config or report value that is missing, of the wrong JSON type, or out of range."""


class Config(dict):
    """A config object as loaded from JSON, recording every key that is looked up,
    by ``take`` or any other read, so that ``refuse_unread`` can name the rest."""

    __slots__ = ("read",)

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def refuse_unread(obj, path: str = "") -> None:
    """Raise ConfigError naming the first key of a loaded config, at any depth,
    that nothing has read: a misspelled key or one the subcommand does not use."""
    if not isinstance(obj, Config):  # a value, or a config built in code
        return
    for key, value in obj.items():
        if key not in obj.read:
            raise ConfigError(f"unused key {path}{key}: nothing reads it")
        refuse_unread(value, f"{path}{key}.")


_ONE = {int: "an integer", bool: "a boolean", str: "a string", dict: "an object", list: "a list"}


def take(obj: dict, key: str, kind, default=..., *, least=None, size=None, parse=None):
    """``obj[key]``, or ``default`` when the key is absent and a default is given.

    ``kind`` is a JSON type: ``int`` (never a bool or a float), ``bool``, ``str``,
    ``dict`` or ``list``; ``[t]``, a list of ``t`` (of ``size`` items when given); or
    a tuple of the values allowed.  ``least`` bounds every integer from below.
    ``parse``, when given, is applied to the value (to each item of a list) and
    to the default.  Anything else, or a value ``parse`` refuses, raises
    ConfigError naming the key and the value.
    """
    item = kind[0] if isinstance(kind, list) else kind

    def fits(values: list) -> bool:  # in C loops: a report may hold a million members
        if isinstance(item, tuple):
            return all(v in item for v in values)
        return set(map(type, values)) <= ({dict, Config} if item is dict else {item}) and (
            least is None or min(values, default=least) >= least)

    if not isinstance(obj, dict):
        raise ConfigError(f"missing {key}: {reprlib.repr(obj)} is not an object")
    value = obj.get(key, default)
    if key in obj and not (fits([value]) if item is kind else type(value) is list
                           and len(value) == (size or len(value)) and fits(value)):
        raise ConfigError(f"bad {key} {reprlib.repr(value)}: {_what(item, kind, least, size)}")
    if value is ...:
        raise ConfigError(f"missing {key}: {_what(item, kind, least, size)}")
    if parse is None:
        return value
    try:
        return parse(value) if item is kind else list(map(parse, value))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad {key} {reprlib.repr(value)}: {exc}") from exc


def _what(item, kind, least, size) -> str:
    if isinstance(item, tuple):
        what = " or ".join(map(repr, item))
    elif item is kind:
        what = _ONE[item]
    else:
        what = f"a list of {f'{size} ' if size else ''}{_ONE[item].split()[-1]}s"
    return what if least is None else f"{what} >= {least}"
