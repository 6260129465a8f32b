"""Scalar arithmetic shared by every module.

Two modes coexist. Exact values are int or fractions.Fraction and compare by
equality; floats compare within a relative tolerance. Mixed comparisons fall
back to the float rule. Spectral quantities (Perron data, Markov traces) are
always floats; purely algebraic operations keep Fractions intact.
"""

import math
from decimal import Decimal, InvalidOperation
from fractions import Fraction

DEFAULT_TOLERANCE = 1e-12


def is_exact(x):
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def to_float(x):
    return float(x)


def div(x, y):
    """Division that keeps exact operands exact (int/int would give float)."""
    if is_exact(x) and is_exact(y):
        return Fraction(x) / Fraction(y)
    return x / y


def _clear_denominators(values):
    """(c, the ints c x) for the least common denominator c of exact
    values; None when one of them is a float."""
    if all(is_exact(x) for x in values):
        c = math.lcm(*(x.denominator for x in values))
        return c, [x.numerator * (c // x.denominator) for x in values]


def close(x, y, tol=None):
    """Equality test honouring the arithmetic mode of the operands.

    Exact operands compare exactly. Otherwise |x - y| is measured against
    max(|x|, |y|, 1), so the tolerance is relative for large values and
    absolute near zero.
    """
    if is_exact(x) and is_exact(y):
        return x == y
    if tol is None:
        tol = DEFAULT_TOLERANCE
    fx, fy = float(x), float(y)
    return abs(fx - fy) <= tol * max(abs(fx), abs(fy), 1.0)


def close_all(xs, ys, tol=None):
    xs, ys = list(xs), list(ys)
    return len(xs) == len(ys) and all(close(x, y, tol) for x, y in zip(xs, ys))


def parse_scalar(text, mode="rational"):
    """Parse "p/q", integer, or decimal strings; numbers pass through.

    In rational mode decimal strings become exact Fractions; in float mode
    everything becomes float.  NaN and infinities are rejected, and so is a
    value that overflows a double or is nonzero but rounds to 0.0, in
    either mode: the spectral solves run on doubles in both modes.
    """
    if isinstance(text, bool) or not isinstance(text, (str, int, Fraction, float)):
        raise ValueError(f"not a scalar: {text!r}")
    value = text
    if isinstance(text, str):
        s = text.strip()
        try:
            if "/" in s:
                value = Fraction(s)
            elif any(c in s for c in ".eE") and not s.lstrip("+-").isdigit():
                # Fraction(s) would build 10**exponent exactly before any
                # range check; a Decimal keeps the exponent as read.
                value = Decimal(s)
            else:
                value = int(s)
        except (ValueError, ZeroDivisionError, InvalidOperation) as exc:
            raise ValueError(f"not a scalar: {text!r}") from exc
    try:
        approx = float(value)
    except OverflowError as exc:
        raise ValueError(f"not a finite scalar: {text!r}") from exc
    if not math.isfinite(approx):
        raise ValueError(f"not a finite scalar: {text!r}")
    if value and not approx:
        raise ValueError(f"nonzero but below the double range: {text!r}")
    if mode == "float":
        return approx
    return Fraction(value) if isinstance(value, (float, Decimal)) else value


def format_scalar(x):
    """Rationals as "p/q" (or bare integer), floats with 17 significant digits."""
    if isinstance(x, bool):
        raise ValueError(f"not a scalar: {x!r}")
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    return "%.17g" % x

