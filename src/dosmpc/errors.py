"""Exception types shared across the package, and the numeric rule check."""
import math
import numbers


class DimensionError(ValueError):
    """Matrix or sequence dimensions are mutually inconsistent."""


class StructureError(ValueError):
    """A structural assumption (stabilizability, observability) fails."""


class SynthesisError(RuntimeError):
    """Gain synthesis did not meet its verified contract."""


class PersistencyError(RuntimeError):
    """Collected data could not be certified persistently exciting."""


class ResilienceError(ValueError):
    """Attack parameters violate the maximum-resilience condition."""


class SolverError(RuntimeError):
    """The QP solver returned a non-optimal status."""


class ConfigError(ValueError):
    """A configuration, a command line or an input file failed validation."""


def check_numbers(values, rules) -> None:
    """Raise ``ConfigError`` for the first ``values[name]`` that breaks its rule:
    (type, lower bound, strict?, +inf accepted?). Bools and NaN never pass."""
    for name, (kind, low, strict, inf_ok) in rules.items():
        value = values[name]
        if not (isinstance(value, kind) and not isinstance(value, bool)  # NaN fails both
                and (value > low if strict else value >= low) and (inf_ok or value < math.inf)):
            what = "an integer" if kind is numbers.Integral else "a finite number"
            raise ConfigError(f"{name} must be {what} {'>' if strict else '>='} {low}"
                              f"{' or +inf' if inf_ok else ''}, got {value!r}")
