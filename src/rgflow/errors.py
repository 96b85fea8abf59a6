"""Semantic exception hierarchy shared by all rgflow modules, and the input
checks they share: read_json_object for JSON files, json_typed and
json_field for values read from JSON (json_field also runs a range check
that another module owns), and check_seed for seeds."""

import json
import numbers
from pathlib import Path


class RgflowError(Exception):
    """Base class for every error raised by this package."""


class DomainError(RgflowError, ValueError):
    """Scalar argument outside its mathematical domain."""


class DimensionMismatch(RgflowError, ValueError):
    """Vector arguments whose shapes do not line up."""


class SingularTime(RgflowError, ArithmeticError):
    """Generation-time velocity requested at g <= 0 where it is undefined."""


class SingularStart(RgflowError, ArithmeticError):
    """Hybrid update requested from g1 = 0 where k = sin(g2)/sin(g1) diverges.

    Not raised at eta = 1, where k^0 = 1 and the update stays finite.
    """


class ConfigError(RgflowError, ValueError):
    """Inconsistent sampler/training configuration."""


class EmptyDataset(RgflowError, ValueError):
    """An operation received a dataset with no samples."""


class InsufficientData(RgflowError, ValueError):
    """Too few samples for the requested statistic."""


class NonFiniteLoss(RgflowError, FloatingPointError):
    """Training loss became NaN/Inf; message carries step diagnostics."""


class NonFiniteOutput(RgflowError, FloatingPointError):
    """A restoration result holds NaN/Inf; message counts the bad rows."""


_JSON_TYPES = {int: "an integer", float: "a number", bool: "true or false",
               str: "a string", list: "a JSON array", dict: "a JSON object"}


def json_typed(value, kind: type, name: str, error: type[RgflowError]):
    """`value`, parsed from JSON, if its JSON type is `kind`, else `error`
    naming `name`.  int takes only integers (not true/false, not 1.0); float
    takes integers and reals and returns a float; bool, str, list and dict
    take only true/false, strings, arrays and objects."""
    if kind is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            raise error(f"{name} is too large for a float") from None
    if type(value) is not kind:
        raise error(f"{name} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def json_field(doc: dict, key: str, kind: type, owner: str, error: type[RgflowError],
               default=None, check=None):
    """doc[key] (`default` when absent) as json_typed types it, named `{owner} {key!r}`.
    With `check`, the value is what check(value) returns, and a DomainError
    it raises becomes `error` reading `{owner} {key!r}: <its message>`."""
    name = f"{owner} {key!r}"
    value = json_typed(doc.get(key, default), kind, name, error)
    try:
        return value if check is None else check(value)
    except DomainError as exc:
        raise error(f"{name}: {exc}") from None


def read_json_object(path, name: str, error: type[RgflowError]) -> dict:
    """The JSON object in the file at `path`, else `error` naming `name` for
    text that is not UTF-8 JSON, nested too deep to parse, or not an object."""
    try:
        doc = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:
        raise error(f"{name} is not JSON: {exc}") from None
    return json_typed(doc, dict, name, error)


def check_seed(value, name: str = "seed") -> int:
    """`value` as an int, if it is a non-negative integer (a Python or numpy
    int, not a bool): the seeds and item ids numpy's seeding accepts.  Else
    ConfigError, so a bad seed is reported as a configuration error rather
    than raised by numpy mid-run."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ConfigError(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)
