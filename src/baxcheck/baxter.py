"""Spectral functions and the baxterised R-matrix constructor.

Rhat_i(x, y) = (1 - f(x, y) s_i) (1 - f(y, x) s_i)^(-1) over the exact
rational-function field.  A spectral function f is just that RatFunc f(x, y),
built once by spectral_fn; rhat_cleared reads f(u, w) and f(w, u) off it by
renaming.  The inverse is an exact matrix inverse, which agrees with the
formal geometric series wherever that series makes sense; the
series/closed-form agreement is checked by tests, never used as the
construction mechanism.

Rhat and H_i(z) are both exactnum.ClearedMatrix: a polynomial matrix over
its denominator factors.  Every check reads that cleared form (regularity,
unitarity, the Yang-Baxter and identity suites), since identity checks can
then cross-multiply denominators and compare polynomials; a rename or a lift
is ClearedMatrix.map.  With constant site denominators their one gcd step is
reduce_cleared, once per site: it divides Rhat by the common factor of its
denominator and all its entries, which rhat_cleared leaves in.  No check here
builds canonical RatFunc entries: ClearedMatrix.value is read only to print.
"""

from __future__ import annotations

import functools
from typing import Sequence

from .exactnum import ClearedMatrix, FieldMatrix, MultiPoly, RatFunc, SingularMatrixError, canonical_vars, poly_gcd
from .exactnum.poly import SPECTRAL
from .exactnum.scalar import as_int, as_scalar, one_of
from .reps import Rep

SPECTRAL_CASES = ("i", "ii", "iii", "hecke")


def spectral_fn(case: str, alpha1=None, alpha2=None, b=None, c=None) -> RatFunc:
    """The spectral function f(x, y) of one admissible family, canonical over ("x", "y").

    case "i":   f(x, y) = (alpha1*x + alpha2*y + b*x*y) / (1 + c*x*y), with all
                four parameters given and alpha1 - alpha2 = +-1.
    case "ii":  f(x, y) = (1 + y) * x / (1 + x)
    case "iii": f(x, y) = (1 + x) * y / (1 + y)
    case "hecke": f(x, y) = -x / y, the sign of the Hecke normalization (s - 1)(s - q) = 0.
                +x/y fails regularity, and the braided Yang-Baxter equation on the
                tensor legs S (x) 1, 1 (x) S, but passes that on Hecke3_std (sigma_1 = sigma_2).
                The transfer harness passes for any f when sigma has two eigenvalues.
    Cases ii, iii and hecke take no parameters, so each is built once per
    process and every call returns that one RatFunc (no caller mutates a
    RatFunc); case i is built per call.
    """
    params = {"alpha1": alpha1, "alpha2": alpha2, "b": b, "c": c}
    if one_of(case, SPECTRAL_CASES, "case") != "i":
        extra = [name for name, v in params.items() if v is not None]
        if extra:
            raise ValueError(f"case {case} takes no parameters, got {extra}")
        return _constant_fn(case)
    missing = [name for name, v in params.items() if v is None]
    if missing:
        raise ValueError(f"case i needs alpha1, alpha2, b and c, missing {missing}")
    alpha1, alpha2, b, c = map(as_scalar, params.values())
    if alpha1 - alpha2 not in (1, -1):
        raise ValueError("case i requires alpha1 - alpha2 in {1, -1}")
    x, y = RatFunc.var(("x", "y"), "x"), RatFunc.var(("x", "y"), "y")
    return (alpha1 * x + alpha2 * y + b * x * y) / (1 + c * x * y)


@functools.cache
def _constant_fn(case: str) -> RatFunc:
    """f(x, y) of the parameter-free case ii, iii or hecke."""
    x, y = RatFunc.var(("x", "y"), "x"), RatFunc.var(("x", "y"), "y")
    if case == "ii":
        return (1 + y) * x / (1 + x)
    if case == "iii":
        return (1 + x) * y / (1 + y)
    return -x / y


def spectral_symbols(rep: Rep, names: Sequence[str]) -> tuple[str, ...]:
    """canonical_vars of rep's parameters and the distinct spectral symbols names.

    Raises ValueError when a rep parameter has the name of a spectral
    variable (x, y, z, v, or one of names): the two would merge into one
    symbol, and the check would test a different identity.
    """
    if len(set(names)) != len(names):
        raise ValueError("spectral arguments must be distinct symbols")
    clash = sorted(set(rep.params) & (set(SPECTRAL) | set(names)))
    if clash:
        raise ValueError(f"rep parameters {clash} collide with spectral variable names")
    return canonical_vars(set(rep.params) | set(names))


def rhat_cleared(rep: Rep, i: int, f: RatFunc, u: str, w: str, symbols: tuple[str, ...]) -> ClearedMatrix:
    """Rhat_i(u, w) as the cleared matrix P / d: a polynomial matrix over one scalar denominator.

    f is the spectral function f(x, y) of spectral_fn, and symbols holds x, y,
    u and w.  P/d equals (1 - f(u,w) sigma_i)(1 - f(w,u) sigma_i)^(-1); d is
    the determinant-bearing scalar, identically zero exactly when the inverse
    does not exist, which raises SingularMatrixError.

    f(u, w) and f(w, u) are each one rename of f(x, y) = num/den, the identity
    rename at (x, y) included.  u != w, so each renamed pair stays coprime.
    It is not rescaled to a monic denominator, so the form changes by a
    constant factor at most, which reduce_cleared divides out.  The form is
    unreduced: d and the entries of P may share a nonconstant factor (see
    reduce_cleared).
    """
    if u == w:
        raise ValueError("spectral arguments must be distinct symbols")
    f = f.lift(symbols)
    uw, wu = {"x": u, "y": w}, {"x": w, "y": u}  # f(x, y) -> f(u, w) and f(w, u)
    uw_num, uw_den, wu_num, wu_den = f.num.rename(uw), f.den.rename(uw), f.num.rename(wu), f.den.rename(wu)
    S, s0 = rep.site(i, symbols).cleared()  # sigma_i = S / s0
    A = S.shifted(-uw_num, uw_den * s0)
    B = S.shifted(-wu_num, wu_den * s0)
    adj, det = B.adjugate_det()
    if not det:
        raise SingularMatrixError(f"R-matrix factor is identically singular: det(1 - f({w},{u})*sigma_{i}) = 0")
    # A/(uw_den s0) * (B/(wu_den s0))^-1: the factor s0 of both cancels
    return ClearedMatrix((A * adj).scale(wu_den), uw_den * det)


def reduce_cleared(C: ClearedMatrix) -> tuple[ClearedMatrix, MultiPoly]:
    """(C/g, g) for the gcd g of C's nonzero denominator delta and every entry of its matrix P.

    The running content g starts at delta, and the nonzero entries are walked
    smallest first (ascending term count, ties in storage order), so the one
    gcd a site cannot avoid meets its smallest entry.  Each entry e is first
    trial-divided by g: gcd(g, e) = g exactly when g divides e, so the
    quotient e/g is kept and no gcd is taken.  Only a failed division calls
    poly_gcd(g, e), whose cofactors are reused: e over the new g is the
    entry's quotient, and g_old/g_new multiplies every quotient kept so far,
    delta/g included.  So a site takes one gcd, plus one each time the
    content shrinks, and no second division pass.  Last, g is scaled so that
    delta/g is monic.  P/g over delta/g is the same matrix as P over delta,
    and no nonconstant polynomial divides delta/g and every entry of P/g, so
    delta/g is the monic lcm of the canonical denominators of the entries (no
    factor at all when that lcm is 1).  Both divisions are exact:
    g * (P/g) == P and g * (delta/g) == delta.
    """
    g = C.denominator()
    reduced = MultiPoly.const(g.vars, 1)  # delta / g
    quots = list(C.M.entries)  # a zero entry is its own quotient
    done = []  # the positions whose quotient is kept
    for k in sorted((k for k, e in enumerate(quots) if e), key=lambda k: quots[k].num_terms()):
        try:
            quots[k] = quots[k].divexact(g)
        except ValueError:
            g, shrink, quots[k] = poly_gcd(g, quots[k])
            reduced *= shrink
            for j in done:
                quots[j] = quots[j] * shrink
        done.append(k)
    unit = reduced.lc()
    if unit != 1:
        quots = [(1 / unit) * q for q in quots]
        reduced, g = (1 / unit) * reduced, unit * g
    return ClearedMatrix(FieldMatrix(C.M.rows, C.M.cols, quots), reduced), g


def build_R(rep: Rep, i: int, f: RatFunc) -> ClearedMatrix:
    """The baxterised R-matrix Rhat_i(x, y) of the spectral function f, reduced (see reduce_cleared).

    Its canonical rational-function entries are R.value().
    """
    symbols = spectral_symbols(rep, ("x", "y"))
    return reduce_cleared(rhat_cleared(rep, i, f, "x", "y", symbols))[0]


def check_regularity(R: ClearedMatrix) -> bool:
    """Rhat(x, x) = identity, checked on the reduced cleared form P / delta of build_R.

    delta is the lcm of the canonical denominators, so delta(x, x) = 0
    exactly when some entry has a pole all along y = x, which raises
    SingularMatrixError.  Otherwise Rhat(x, x) = 1 iff P(x, x) = delta(x, x)
    times the identity.
    """
    diag = R.map(lambda e: e.rename({"y": "x"}))
    delta = diag.denominator()
    if not delta:
        raise SingularMatrixError("R-matrix singular on the diagonal y = x")
    return diag.M == FieldMatrix.identity(R.M.rows, delta)


def check_unitarity(R: ClearedMatrix) -> bool:
    """Rhat(x, y) * Rhat(y, x) = identity, checked on the reduced cleared form P / delta of build_R.

    P(x, y) * P(y, x) is compared with delta(x, y) * delta(y, x) times the
    identity; Rhat(y, x) is R with its two spectral variables swapped.
    """
    both = R * R.map(lambda e: e.rename({"x": "y", "y": "x"}))
    return both.M == FieldMatrix.identity(R.M.rows, both.denominator())


# -- H-operator utilities -------------------------------------------------------


def H_closed(rep: Rep, i: int) -> ClearedMatrix:
    """H_i(z) = sigma_i (1 - z sigma_i)^(-1) over Q(z + rep params), as the cleared matrix Y / det.

    X / det is the one cleared inverse of 1 - z sigma_i, so the resolvent identity H = ((1 - z sigma_i)^(-1) - 1) / z
    gives Y = (X - det) / z, exact since X - det vanishes at z = 0.  Clearing takes a gcd only when some
    entry of sigma_i has a nonconstant denominator.
    """
    symbols = spectral_symbols(rep, ("z",))
    z = RatFunc.var(symbols, "z")
    X, det = rep.site(i, symbols).shifted(-z, 1).inv()
    return ClearedMatrix(X.shifted(1, -det).map_entries(lambda e: e.divexact(z.num)), det)


def H_series(rep: Rep, i: int, order: int) -> FieldMatrix:
    """Truncated series sum_{l=0..order} sigma_i^(l+1) z^l, from sigma_i and order matrix products."""
    as_int(order, "series_order", floor=0)  # the job field's name
    symbols = spectral_symbols(rep, ("z",))
    sigma = rep.site(i, symbols)
    zz = RatFunc.var(symbols, "z")
    acc = power = sigma
    zpow = RatFunc.const(symbols, 1)
    for _ in range(order):
        power = power * sigma
        zpow = zpow * zz
        acc = acc + power.scale(zpow)
    return acc


def h_fun(a, b, c) -> RatFunc:
    """h(z) = a / (c z^2 - b z - a); requires a != 0."""
    a, b, c = map(as_scalar, (a, b, c))
    if a == 0:
        raise ValueError("h undefined: the construction needs a != 0")
    zz = RatFunc.var(("z",), "z")
    return RatFunc.const(zz.vars, a) / (c * zz * zz - b * zz - a)


def series_agreement_order(rep: Rep, i: int, order: int) -> int | None:
    """Smallest z-valuation over entries of H_closed - H_series(order).

    None means the difference is identically zero (agreement to all orders).
    It stays cleared, M / D, since val(M_jk / D) = val(M_jk) - val(D) in any form.
    """
    series = ClearedMatrix(*H_series(rep, i, order).cleared())  # reads order before H_closed is built
    diff = H_closed(rep, i) - series
    if diff.M.is_zero:
        return None
    return min(e.valuation_in("z") for e in diff.M.entries if e) - diff.denominator().valuation_in("z")
