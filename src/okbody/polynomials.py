"""Exact homogeneous polynomial arithmetic over the rationals.

A polynomial is stored sparsely as a dict mapping exponent tuples to nonzero
``Fraction`` coefficients.  Every stored exponent tuple has the same total
degree, so a :class:`HomogPoly` is a single graded piece of a polynomial ring
and all arithmetic is exact (no rounding, ever).

Example (3 variables x, y, z)::

    x^2*y - (1/2)*z^3   is invalid (mixed degrees)
    x^2*y - (1/2)*y*z^2  ->  {(2, 1, 0): Fraction(1), (0, 1, 2): Fraction(-1, 2)}

The zero polynomial has an empty term dict but still carries a declared
degree so that sums and products stay well typed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence, Union

Exponent = tuple[int, ...]
Scalar = Union[int, Fraction]


def _exact(value: Scalar) -> Scalar:
    """The value itself when it is an int or a Fraction; no float or string
    enters the exact arithmetic."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"{value!r} is not an int or a Fraction")
    return value


def _exponents(exps: Sequence[int]) -> Exponent:
    """The exponents as a tuple of ints, none truncated or coerced."""
    exps = tuple(exps)
    if any(type(e) is not int for e in exps):
        raise TypeError(f"exponent tuple {exps!r} holds a non-int exponent")
    return exps


class Frozen:
    """Base of okbody's immutable values: __init__ sets the fields through
    vars(self), assigning or deleting an attribute raises AttributeError,
    and values of one class with equal vars are equal and hash alike."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))


@lru_cache(maxsize=None)
def graded_monomials(num_vars: int, degree: int) -> tuple[Exponent, ...]:
    """All exponent tuples with the given total degree, lexicographically
    decreasing.  The count is C(degree + num_vars - 1, num_vars - 1)."""
    if num_vars < 1:
        raise ValueError("need at least one variable")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if num_vars == 1:
        return ((degree,),)
    out = []
    for e in range(degree, -1, -1):
        for rest in graded_monomials(num_vars - 1, degree - e):
            out.append((e,) + rest)
    return tuple(out)


class HomogPoly:
    """A homogeneous polynomial with exact rational coefficients."""

    __slots__ = ("num_vars", "degree", "terms")

    def __init__(self, num_vars: int, degree: int,
                 terms: Mapping[Exponent, Scalar]):
        if num_vars < 1:
            raise ValueError("need at least one variable")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        clean: dict[Exponent, Fraction] = {}
        for exps, coeff in terms.items():
            exps = _exponents(exps)
            coeff = Fraction(_exact(coeff))
            if len(exps) != num_vars:
                raise ValueError(f"exponent tuple {exps} has wrong length")
            if any(e < 0 for e in exps) or sum(exps) != degree:
                raise ValueError(f"exponent tuple {exps} is not of degree {degree}")
            if coeff:
                clean[exps] = coeff
        self.num_vars = num_vars
        self.degree = degree
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, num_vars: int, value: Scalar) -> HomogPoly:
        return cls(num_vars, 0, {(0,) * num_vars: value})

    @classmethod
    def monomial(cls, exps: Sequence[int], coeff: Scalar = 1) -> HomogPoly:
        exps = _exponents(exps)
        return cls(len(exps), sum(exps), {exps: coeff})

    @classmethod
    def variable(cls, num_vars: int, index: int) -> HomogPoly:
        if not 0 <= index < num_vars:
            raise ValueError(f"variable index {index} out of range")
        exps = tuple(1 if i == index else 0 for i in range(num_vars))
        return cls(num_vars, 1, {exps: 1})

    @classmethod
    def linear_form(cls, coeffs: Sequence[Scalar]) -> HomogPoly:
        n = len(coeffs)
        return cls(n, 1, {tuple(int(j == i) for j in range(n)): c
                          for i, c in enumerate(coeffs)})

    # -- basic queries -----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HomogPoly):
            return NotImplemented
        if self.num_vars != other.num_vars:
            return False
        if not self.terms and not other.terms:
            return True
        return self.degree == other.degree and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]  # mutable term dict

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in lexicographically decreasing exponent order."""
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def coefficient_vector(self, monomials: Sequence[Exponent]) -> tuple[Fraction, ...]:
        return tuple(self.terms.get(m, Fraction(0)) for m in monomials)

    # -- arithmetic --------------------------------------------------------

    def _compatible(self, other: HomogPoly) -> None:
        if self.num_vars != other.num_vars:
            raise ValueError("mixed numbers of variables")
        if self.terms and other.terms and self.degree != other.degree:
            raise ValueError("mixed degrees in a homogeneous sum")

    def __add__(self, other: HomogPoly) -> HomogPoly:
        if not isinstance(other, HomogPoly):
            return NotImplemented
        self._compatible(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, Fraction(0)) + c
        degree = self.degree if self.terms else other.degree
        return HomogPoly(self.num_vars, degree, out)

    def __sub__(self, other: HomogPoly) -> HomogPoly:
        return self + (-other)

    def __neg__(self) -> HomogPoly:
        return HomogPoly(self.num_vars, self.degree,
                         {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: Union[HomogPoly, Scalar]) -> HomogPoly:
        if isinstance(other, (int, Fraction)):
            terms = {e: c * other for e, c in self.terms.items()}
            return HomogPoly(self.num_vars, self.degree, terms)
        if not isinstance(other, HomogPoly):
            return NotImplemented
        if self.num_vars != other.num_vars:
            raise ValueError("mixed numbers of variables")
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return HomogPoly(self.num_vars, self.degree + other.degree, out)

    def __rmul__(self, other: Scalar) -> HomogPoly:
        return self.__mul__(other)

    def __pow__(self, exponent: int) -> HomogPoly:
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = HomogPoly.constant(self.num_vars, 1)
        for _ in range(exponent):
            result = result * self
        return result

    # -- calculus and substitution -----------------------------------------

    def partial(self, index: int) -> HomogPoly:
        out: dict[Exponent, Fraction] = {}
        for exps, c in self.terms.items():
            e = exps[index]
            if e == 0:
                continue
            key = exps[:index] + (e - 1,) + exps[index + 1:]
            out[key] = out.get(key, Fraction(0)) + c * e
        return HomogPoly(self.num_vars, max(self.degree - 1, 0), out)

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        if len(point) != self.num_vars:
            raise ValueError("point has wrong length")
        pt = [Fraction(_exact(v)) for v in point]
        total = Fraction(0)
        for exps, c in self.terms.items():
            value = c
            for v, e in zip(pt, exps):
                if e:
                    value *= v ** e
            total += value
        return total

    def substitute(self, index: int, form: HomogPoly) -> HomogPoly:
        """Substitute x_index by a linear form in the same variables."""
        if not 0 <= index < self.num_vars:
            raise ValueError("index out of range")
        if form.num_vars != self.num_vars or (form and form.degree != 1):
            raise ValueError("substitute a linear form in the same variables")
        powers = [HomogPoly.constant(self.num_vars, 1)]
        out: dict[Exponent, Fraction] = {}
        for exps, c in self.terms.items():
            e = exps[index]
            while len(powers) <= e:
                powers.append(powers[-1] * form)
            rest = exps[:index] + (0,) + exps[index + 1:]
            for pe, pc in powers[e].terms.items():
                key = tuple(a + b for a, b in zip(rest, pe))
                out[key] = out.get(key, Fraction(0)) + c * pc
        return HomogPoly(self.num_vars, self.degree, out)

    def coefficient_of(self, index: int, power: int) -> HomogPoly:
        """The coefficient of x_index^power, a polynomial in the remaining
        variables (the index coordinate is dropped)."""
        if self.num_vars < 2:
            raise ValueError("need a variable to keep")
        terms = {exps[:index] + exps[index + 1:]: c
                 for exps, c in self.terms.items() if exps[index] == power}
        degree = max(self.degree - power, 0)
        return HomogPoly(self.num_vars - 1, degree, terms)

    def __repr__(self) -> str:
        return f"HomogPoly({self.num_vars}, {self.degree}, {self.terms!r})"


# -- projective common zeros -------------------------------------------------


def has_projective_common_zero(forms: Sequence[HomogPoly]) -> bool:
    """Decide whether homogeneous forms share a common projective zero.

    Uses the Macaulay bound: n forms of degrees d_i in any number of
    variables have no common projective zero over an algebraically closed
    field if and only if the ideal they generate contains every monomial of
    degree nu = sum(d_i - 1) + 1.  That containment is a full-column-rank
    condition on the matrix of degree-nu multiples of the forms, i.e. the
    nonvanishing of the multivariate resultant of the system, and is decided
    here by exact Gaussian elimination.
    """
    from .linalg import Echelon

    forms = [f for f in forms if f]
    if not forms:
        return True
    num_vars = forms[0].num_vars
    if any(f.num_vars != num_vars for f in forms):
        raise ValueError("mixed numbers of variables")
    if any(f.degree == 0 for f in forms):
        return False  # a nonzero constant lies in the ideal
    nu = sum(f.degree - 1 for f in forms) + 1
    monos = graded_monomials(num_vars, nu)
    echelon = Echelon(len(monos))
    for f in forms:
        for mu in graded_monomials(num_vars, nu - f.degree):
            echelon.add((HomogPoly.monomial(mu) * f).coefficient_vector(monos))
    return echelon.rank < len(monos)
