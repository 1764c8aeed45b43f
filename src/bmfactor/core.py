"""Shared value types: dense polynomials and weight/operator descriptors."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Iterable, Union

import numpy as np

Number = Union[int, float]


def _normalize(coeffs: Iterable[Number]) -> tuple[float, ...]:
    c = [float(v) for v in coeffs]
    while c and c[-1] == 0.0:
        c.pop()
    return tuple(c)


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial stored densely in the monomial basis.

    ``coeffs[k]`` multiplies ``x**k``.  Trailing zeros are stripped on
    construction, so equality and degree queries are deterministic; the zero
    polynomial is the empty tuple and has degree ``None``.
    """

    coeffs: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _normalize(self.coeffs))

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def monomial(cls, k: int, c: Number = 1.0) -> "Polynomial":
        return cls((0.0,) * k + (float(c),))

    @property
    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.coeffs), default=0.0)

    def coeff(self, k: int) -> float:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0.0

    def padded(self, length: int) -> np.ndarray:
        out = np.zeros(length)
        out[: len(self.coeffs)] = self.coeffs
        return out

    def __call__(self, x):
        acc = 0.0 * np.asarray(x, dtype=float) if np.ndim(x) else 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(tuple(self.coeff(k) + other.coeff(k) for k in range(n)))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial.zero()
            out = [0.0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Polynomial(out)
        return Polynomial(tuple(float(other) * c for c in self.coeffs))

    __rmul__ = __mul__

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(k * self.coeffs[k] for k in range(1, len(self.coeffs))))


class WeightFamily(Enum):
    GENERALIZED_HERMITE = "hermite"
    GENERALIZED_GEGENBAUER = "gegenbauer"


class OperatorKind(Enum):
    CLASSICAL_DERIVATIVE = "ddx"
    DUNKL = "dunkl"


@dataclass(frozen=True)
class WeightSpec:
    """Weight |x|^(2*lam) * exp(-x^2) on R, or |x|^(2*lam) * (1-x^2)^(mu-1/2) on [-1,1]."""

    family: WeightFamily
    lam: float
    mu: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam}")
        if self.family is WeightFamily.GENERALIZED_GEGENBAUER:
            if not (math.isfinite(self.mu) and self.mu > -0.5):
                raise ValueError(f"mu must be finite and > -1/2, got {self.mu}")
        else:
            object.__setattr__(self, "mu", 0.0)  # mu is meaningless on the real line

    @classmethod
    def hermite(cls, lam: float) -> "WeightSpec":
        return cls(WeightFamily.GENERALIZED_HERMITE, lam)

    @classmethod
    def gegenbauer(cls, lam: float, mu: float) -> "WeightSpec":
        return cls(WeightFamily.GENERALIZED_GEGENBAUER, lam, mu)

    @property
    def is_gegenbauer(self) -> bool:
        return self.family is WeightFamily.GENERALIZED_GEGENBAUER

    @property
    def interval(self) -> tuple[float, float]:
        return (-1.0, 1.0) if self.is_gegenbauer else (-np.inf, np.inf)


@dataclass(frozen=True)
class OperatorSpec:
    """d/dx or the Dunkl operator, optionally damped by sqrt(A(x))."""

    kind: OperatorKind
    damped: bool = False

    @classmethod
    def ddx(cls, damped: bool = False) -> "OperatorSpec":
        return cls(OperatorKind.CLASSICAL_DERIVATIVE, damped)

    @classmethod
    def dunkl(cls, damped: bool = False) -> "OperatorSpec":
        return cls(OperatorKind.DUNKL, damped)

    @property
    def is_dunkl(self) -> bool:
        return self.kind is OperatorKind.DUNKL


def _describe(weight: WeightSpec) -> str:
    """The weight as refusal messages name it: family and lambda, and mu on [-1, 1]."""
    mu = f", mu={weight.mu}" if weight.is_gegenbauer else ""
    return f"{weight.family.value} weight (lambda={weight.lam}{mu})"


class _BuiltOnRead:
    """A dataclass field that may be given as a ``functools.partial`` building its value.

    The partial is called on the first read and its value is cached, so
    equality, hashing, repr and pickling see the field as if it had been
    given built.  Reading the field on the class raises ``AttributeError``,
    which tells ``dataclass`` that the field has no default.
    """

    def __set_name__(self, owner: type, name: str) -> None:
        self.slot = f"_{name}"

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.slot[1:])
        value = obj.__dict__[self.slot]
        if isinstance(value, partial):
            value = obj.__dict__[self.slot] = value()
        return value

    def __set__(self, obj, value) -> None:
        obj.__dict__[self.slot] = value
