"""Error types raised by the library.

Every error carries enough structured payload to reconstruct what went wrong;
the CLI surfaces these payloads verbatim in its reports.
"""


class MFDError(Exception):
    """Base class for all domain errors."""


class DisconnectedSupport(MFDError):
    """The support graph of a dimension matrix splits into several components.

    components: list of (row_indices, column_indices) pairs, one per component.
    """

    def __init__(self, components):
        self.components = components
        parts = ", ".join(
            "rows {} / cols {}".format(sorted(r), sorted(c)) for r, c in components
        )
        super().__init__("support graph is disconnected: " + parts)


class NegativeEntry(MFDError):
    def __init__(self, position, value):
        self.position = position
        self.value = value
        super().__init__(f"negative entry {value} at {position}")


class NonPositiveDistortion(MFDError, ValueError):
    """A distortion entry is zero, negative or NaN."""

    def __init__(self, position, value):
        self.position = position
        self.value = value
        super().__init__(f"distortion entry at {position} is not positive: {value}")


class SupportMismatch(MFDError):
    """D and the Jones matrix disagree about which entries vanish."""

    def __init__(self, position):
        self.position = position
        super().__init__(f"zero patterns differ at {position}")


class NonConvergence(MFDError):
    """An iteration ran out of steps; with max_iter None, a solve failed its residual check."""

    def __init__(self, max_iter, residual=None):
        self.max_iter = max_iter
        self.residual = residual
        msg = ("eigen-solve failed its residual check" if max_iter is None
               else f"iteration did not converge within {max_iter} steps")
        if residual is not None:
            msg += f" (residual {residual})"
        super().__init__(msg)


class MissingEntry(MFDError):
    """A value required on a support edge is absent."""

    def __init__(self, position):
        self.position = position
        super().__init__(f"no value at support position {position}")


class CycleViolation(MFDError):
    """Cycle products around a support cycle disagree.

    witness: alternating vertex cycle as a tuple of ("row", i) / ("col", j)
    pairs, together with the two products.
    """

    def __init__(self, witness, left=None, right=None):
        self.witness = witness
        self.left = left
        self.right = right
        msg = f"cycle condition fails on cycle {witness}"
        if left is not None:
            msg += f": {left} != {right}"
        super().__init__(msg)


class MissingDistortionEntry(MissingEntry):
    pass


class ColumnNormalizationViolation(MFDError):
    """sum_i Jones_ij / delta_ij != 1 for some column j.

    Signals that delta is not realizable by any inclusion; see
    markov.column_sum_violation, the one realizability test.
    """

    def __init__(self, column, value):
        self.column = column
        self.value = value
        super().__init__(f"column {column} sums to {value}, expected 1")


class ZeroPi(MFDError):
    def __init__(self, column):
        self.column = column
        super().__init__(f"pi[{column}] = 0 on a used entry")


class NotCentral(MFDError):
    def __init__(self, reason=""):
        super().__init__("element is not central" + (": " + reason if reason else ""))


class InconsistentDimensions(MFDError):
    def __init__(self, expected, got):
        self.expected = expected
        self.got = got
        super().__init__(f"ambient sizes differ: {expected} vs {got}")


class InconsistentTraces(MFDError):
    def __init__(self, reason):
        super().__init__("commuting-square trace data inconsistent: " + reason)


class ParseError(MFDError):
    """Input file does not parse to a valid specification."""

    def __init__(self, message, field=None):
        self.field = field
        super().__init__(message if field is None else f"{field}: {message}")
