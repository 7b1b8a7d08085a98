"""Stretching polynomials N -> c_{N lambda, N mu}^{N nu}.

The count along the stretched ray is a polynomial of degree at most
3 C(k-1,2) in N, so an exact fit (exactla.fit_poly) at D+1 consecutive
values pins it down; three further values are recounted and compared as
a guard.  The extrapolated value at N = 0 and the signs of the
coefficients are reported but never asserted (coefficient nonnegativity
is open).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import typea
from .exactla import UniPolyQ, fit_poly
from .hive import build_system, count_via_system, hive_count
from .steinberg import steinberg_count
from .tableaux import lr_rule_count


class PolynomialityError(RuntimeError):
    """The held-out recounts disagreed with the fitted polynomial."""


def count_by(method: str, lam, mu, nu, k: int = None) -> int:
    """c_{lam mu}^{nu} by one of COUNTING_METHODS, all under one contract.

    The triple is read through typea.padded_triple; every method gives 0
    when |lam| + |mu| != |nu|.  An explicit k below 2 or below a
    partition's length raises ValueError; otherwise the count is taken at
    the inferred k, since padding changes no count.
    """
    if k is not None and k < 2:
        raise ValueError("k must be >= 2")
    lam, mu, nu, inferred = typea.padded_triple(lam, mu, nu)
    if k is not None and k < inferred:
        raise ValueError(f"a partition has more than {k} parts")
    k = inferred
    if method == "hive":
        return hive_count(lam, mu, nu, k)
    if method == "steinberg":
        return steinberg_count(lam, mu, nu, k)
    if method == "tableaux":
        return lr_rule_count(lam, mu, nu)
    if method == "system":
        return count_via_system(build_system(k), lam, mu, nu)
    raise ValueError(f"unknown counting method: {method}")


COUNTING_METHODS = ("hive", "steinberg", "tableaux", "system")


@dataclass(frozen=True)
class StretchResult:
    polynomial: UniPolyQ
    degree_bound: int
    samples: tuple            # (N, count) pairs the polynomial is fitted to
    verification_points: tuple  # (N, expected, got) triples, all equal
    value_at_0: Fraction
    coefficients_nonnegative: bool

    def to_json_dict(self) -> dict:
        return {
            "polynomial": self.polynomial.format("N"),
            "coefficients": [str(c) for c in self.polynomial.coefficients],
            "degree_bound": self.degree_bound,
            "degree": self.polynomial.degree(),
            "samples": [[n, str(c)] for n, c in self.samples],
            "verification": [
                [n, str(e), str(g)] for n, e, g in self.verification_points
            ],
            "p0": str(self.value_at_0),
            "coefficients_nonnegative": self.coefficients_nonnegative,
        }


def _scaled(parts, n: int) -> tuple:
    return tuple(n * p for p in parts)


def stretch_poly(lam, mu, nu, method: str = "hive") -> StretchResult:
    """Fit c at N = 1..D+1 and verify at N = D+2..D+4 exactly."""
    lam, mu, nu = map(typea.validate_partition, (lam, mu, nu))
    if sum(lam) + sum(mu) != sum(nu):
        raise ValueError("|lambda| + |mu| must equal |nu|")
    *_, k = typea.padded_triple(lam, mu, nu)
    bound = 3 * comb(k - 1, 2)
    samples = []
    for n in range(1, bound + 2):
        c = count_by(method, _scaled(lam, n), _scaled(mu, n), _scaled(nu, n), k)
        samples.append((n, c))
    # D + 1 distinct abscissae determine the fit, so it is never None
    fit = fit_poly((((n,), c) for n, c in samples), 1, bound)
    poly = UniPolyQ.from_coeffs(
        fit.coefficient((p,)) for p in range(bound + 1)
    )
    checks = []
    for n in range(bound + 2, bound + 5):
        expected = poly.evaluate(n)
        got = count_by(method, _scaled(lam, n), _scaled(mu, n), _scaled(nu, n), k)
        checks.append((n, expected, Fraction(got)))
        if expected != got:
            raise PolynomialityError(
                f"polynomiality violated at N={n}: "
                f"interpolant gives {expected}, count gives {got}"
            )
    return StretchResult(
        polynomial=poly,
        degree_bound=bound,
        samples=tuple(samples),
        verification_points=tuple(checks),
        value_at_0=poly.evaluate(0),
        coefficients_nonnegative=all(c >= 0 for c in poly.coefficients),
    )


@dataclass(frozen=True)
class KttReport:
    """P(0) = 1 and nonnegative coefficients, reported per triple."""

    p0_is_one: bool
    coefficients_nonnegative: bool
    result: StretchResult

    def to_json_dict(self) -> dict:
        return {
            "p0_is_one": self.p0_is_one,
            "coefficients_nonnegative": self.coefficients_nonnegative,
            "stretch": self.result.to_json_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def check_ktt(lam, mu, nu, method: str = "hive") -> KttReport:
    """Conjecture report for a triple with positive coefficient."""
    c = count_by(method, lam, mu, nu)
    if c == 0:
        raise ValueError("conjecture report requires a positive coefficient")
    result = stretch_poly(lam, mu, nu, method)
    return KttReport(
        p0_is_one=result.value_at_0 == 1,
        coefficients_nonnegative=result.coefficients_nonnegative,
        result=result,
    )


def check_linear_k3(lam, mu, nu, method: str = "hive") -> bool:
    """Does the stretching polynomial equal 1 + N(c - 1)?  (k <= 3 only.)"""
    *_, k = typea.padded_triple(lam, mu, nu)
    if k > 3:
        raise ValueError("the linear identity is specific to k <= 3")
    c = count_by(method, lam, mu, nu)
    if c == 0:
        raise ValueError("identity stated for positive coefficients only")
    expected = UniPolyQ.from_coeffs([1, c - 1])
    return stretch_poly(lam, mu, nu, method).polynomial == expected
