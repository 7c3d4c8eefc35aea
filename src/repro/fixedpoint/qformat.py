"""Q-format descriptors and float <-> raw-integer conversion.

A :class:`QFormat` names a fixed-point representation in ARM Q notation:
``Qm.n`` has ``m`` integer bits (sign included when signed) and ``n``
fractional bits, for a total word of ``m + n`` bits.  Raw values are plain
Python/numpy integers scaled by ``2**n``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QFormat",
    "Q1_15",
    "Q4_12",
    "Q8_8",
    "Q14_2",
    "Q29_3",
    "UQ8_0",
    "UQ16_0",
]


def _dtype_for(total_bits: int) -> np.dtype:
    """Smallest signed numpy dtype that holds ``total_bits``-bit raws.

    A signed dtype is used even for unsigned formats so that intermediate
    arithmetic (for example two's-complement subtraction) never wraps
    silently inside numpy.
    """
    if total_bits <= 16:
        return np.dtype(np.int16)
    if total_bits <= 32:
        return np.dtype(np.int32)
    if total_bits <= 64:
        return np.dtype(np.int64)
    raise ValueError(f"unsupported word size: {total_bits} bits")


@dataclass(frozen=True)
class QFormat:
    """A fixed-point format in ARM Q notation.

    Attributes:
        integer_bits: Number of integer bits; for signed formats this
            includes the sign bit (so ``Q1.15`` spans ``(-1, 1)``).
        fraction_bits: Number of fractional bits; the scale is
            ``2**fraction_bits``.
        signed: Whether raw values are two's complement.
    """

    integer_bits: int
    fraction_bits: int
    signed: bool = True

    def __post_init__(self) -> None:
        if self.integer_bits < 0 or self.fraction_bits < 0:
            raise ValueError("bit counts must be non-negative")
        if self.total_bits <= 0:
            raise ValueError("format must have at least one bit")
        if self.signed and self.integer_bits < 1:
            raise ValueError("signed formats need at least the sign bit")

    @property
    def total_bits(self) -> int:
        """Total word width in bits."""
        return self.integer_bits + self.fraction_bits

    @property
    def scale(self) -> int:
        """Raw units per 1.0: ``2**fraction_bits``."""
        return 1 << self.fraction_bits

    @property
    def raw_min(self) -> int:
        """Smallest representable raw integer."""
        return -(1 << (self.total_bits - 1)) if self.signed else 0

    @property
    def raw_max(self) -> int:
        """Largest representable raw integer."""
        if self.signed:
            return (1 << (self.total_bits - 1)) - 1
        return (1 << self.total_bits) - 1

    @property
    def min_value(self) -> float:
        """Smallest representable real value."""
        return self.raw_min / self.scale

    @property
    def max_value(self) -> float:
        """Largest representable real value."""
        return self.raw_max / self.scale

    @property
    def resolution(self) -> float:
        """Real-value spacing between adjacent raws (one LSB)."""
        return 1.0 / self.scale

    @property
    def dtype(self) -> np.dtype:
        """Numpy dtype wide enough to hold raws of this format."""
        return _dtype_for(self.total_bits if self.signed else self.total_bits + 1)

    def quantize(self, value):
        """Convert real values to raw integers (round-to-nearest, saturate).

        Args:
            value: Scalar or array of real values.

        Returns:
            Raw integers with the same shape as ``value``, clipped to the
            representable range.
        """
        raw = np.rint(np.asarray(value, dtype=np.float64) * self.scale)
        raw = np.minimum(np.maximum(raw, self.raw_min), self.raw_max)
        out = raw.astype(self.dtype)
        return out if out.ndim else out[()]

    def to_float(self, raw):
        """Convert raw integers back to real values."""
        return np.asarray(raw, dtype=np.float64) / self.scale

    def contains_raw(self, raw) -> bool:
        """Whether every element of ``raw`` is in the representable range."""
        arr = np.asarray(raw)
        return bool(np.all(arr >= self.raw_min) and np.all(arr <= self.raw_max))

    def __str__(self) -> str:
        prefix = "Q" if self.signed else "UQ"
        return f"{prefix}{self.integer_bits}.{self.fraction_bits}"


#: Rotation matrix / translation vector entries (paper section 3.3).
Q1_15 = QFormat(1, 15)
#: Inverse-depth feature coordinates (paper section 3.3).
Q4_12 = QFormat(4, 12)
#: General-purpose 16-bit intermediate with half-and-half split.
Q8_8 = QFormat(8, 8)
#: Jacobian entries (paper section 3.4).
Q14_2 = QFormat(14, 2)
#: Hessian and steepest-descent accumulators (paper section 3.4).
Q29_3 = QFormat(29, 3)
#: 8-bit unsigned pixels.
UQ8_0 = QFormat(8, 0, signed=False)
#: 16-bit unsigned intermediates (for example squared distances).
UQ16_0 = QFormat(16, 0, signed=False)
