"""Verification suites: braided Yang-Baxter checks, the two auxiliary-identity
suites, and the transfer-matrix commutation harness.

The symbolic Yang-Baxter check works on cleared denominators: each R-matrix
is an exactnum.ClearedMatrix, a polynomial matrix over one scalar polynomial,
each side of the identity is the product of its three factors, and the
residual is the cross-multiplied difference.  Each site's cleared form is
first divided by its content g, the common factor of its denominator and all
its entries (baxter.reduce_cleared).  The difference of the two sides cancels
the denominator factors they share and cross-multiplies only the unmatched
reduced ones.  Every removed factor is nonzero, so the verdict is unchanged.
A nonzero residual is reported by the term count of the fully
cross-multiplied unreduced one: the shared factors and the g of every Rhat
factor are restored, and only then.  The count is reached without
multiplying every entry back (exactnum.poly.max_product_terms): an entry
times the restoring factor has at most as many terms as the sumset of the
two supports, so an entry is multiplied out only while that bound beats the
largest count so far, and the reported size is the same.

The identity suites sum cleared terms too: sites and H's (baxter.H_closed, as
it comes, built at z and renamed to v) are cleared, each coefficient is a
numerator over its denominator factors, and lhs - rhs is zero exactly when its
polynomial matrix is, which takes no gcd.  Only a nonzero one is reduced to canonical entries
(ClearedMatrix.value), whose largest term count is its size.

The randomized mode is exact polynomial identity testing: spectral variables
and free representation parameters are drawn as random rationals, both sides
are evaluated on ints (each Rhat an int pair), and any pole or singular
factor triggers a resample.  Each distinct site sigma = S / s and f are
compiled once per call (exactnum.poly.evaluator, the one pole check).  A draw
does each piece of work once: two equal sites share one evaluation and their
Rhats, and f's six ordered pairs are one batch, as int pairs.  Each
Rhat inverts 1 - f(w,u) sigma inside the commutative algebra Q[sigma], whose
dimension k is the degree of sigma's minimal polynomial mu, found once per
distinct site and draw by fraction-free Krylov (_min_poly).  When k < n the inverse is that of a k x k
companion pencil, mapped back to n x n matrices by one shift for k = 2;
when k = n the n x n matrix is inverted as it stands (_numeric_rhat).
Verdicts agree with the symbolic mode up to the vanishing-at-a-random-point
caveat, which the acceptance fixtures exercise both ways.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations
from typing import Callable, Sequence

from .exactnum import ClearedMatrix, FieldMatrix, MultiPoly, PoleError, RatFunc, SingularMatrixError, split_factors
from .exactnum.poly import evaluator, max_product_terms
from .exactnum.scalar import as_bool, as_int, as_list, as_scalar, format_scalar
from .baxter import H_closed, h_fun, reduce_cleared, rhat_cleared, spectral_symbols
from .ncalg import relations_for
from .report import VerifyReport
from .reps import Rep, check_relations

_M64 = (1 << 64) - 1


def _mix(z: int) -> int:
    """splitmix64 finalizer; keeps randomized reports reproducible across platforms."""
    z &= _M64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _M64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _M64
    return z ^ (z >> 31)


class DetRng:
    """Deterministic 64-bit generator (splitmix64)."""

    def __init__(self, seed: int):
        self.state = seed & _M64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _M64
        return _mix(self.state)

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.next_u64() % (hi - lo + 1)


def split_rng(seed: int, stream: int) -> DetRng:
    """Independent per-trial generator, so trial outcomes are order-free."""
    return DetRng(_mix(seed ^ (0xA076_1D64_78BD_642F * (stream + 1))))


def sample_fraction(rng: DetRng) -> Fraction:
    """Uniform numerator in [-10^6, 10^6] over a denominator in [1, 10^3]."""
    return Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**3))


# -- braided Yang-Baxter, symbolic ---------------------------------------------

# The Rhat factors (site, u, w) of R1(x,y) R2(x,z) R1(y,z) = R2(y,z) R1(x,z) R2(x,y),
# with u and w indices into the spectral variables (x, y, z).
_YBE_VARS = ("x", "y", "z")
_YBE_LHS = ((1, 0, 1), (2, 0, 2), (1, 1, 2))
_YBE_RHS = ((2, 1, 2), (1, 0, 2), (2, 0, 1))


def _ybe_sides(site1, site2) -> tuple[tuple[int, ...], Sequence[tuple[int, int, int]], Sequence[tuple[int, int, int]]]:
    """(sites to build, lhs keys, rhs keys) for sites of values site1, site2: equal ones share, as site 1."""
    if site1 != site2:
        return (1, 2), _YBE_LHS, _YBE_RHS
    return (1,), *([(1, u, w) for _, u, w in side] for side in (_YBE_LHS, _YBE_RHS))


def ybe_symbolic(rep: Rep, f: RatFunc) -> VerifyReport:
    """Exact check of R1(x,y) R2(x,z) R1(y,z) = R2(y,z) R1(x,z) R2(x,y) for the spectral function f.

    Each distinct site's Rhat is built once, at (x, y), and divided by its
    content g (baxter.reduce_cleared); two equal sites share it
    (_ybe_sides).  Its (x, z) and (y, z) factors are renames
    (ClearedMatrix.map).  Renaming is a ring map, and these renames keep the
    canonical order of x, y, z ahead of every rep parameter, so each is
    exactly the factor rhat_cleared builds at its pair, divided by the
    renamed g.

    The unreduced fully cross-multiplied residual is the reduced one times
    the product of the six factors' g's.  A nonzero residual's size is the
    largest term count of an entry times them and the shared denominator
    factors; only then are the g's renamed to their pairs.  max_product_terms
    reaches that count by multiplying out only the entries whose sumset
    bound beats the largest count so far: on A3_2dim at c = 1 with case ii,
    one entry of four.
    """
    if rep.n < 3:
        raise ValueError("the braided Yang-Baxter check needs generators at sites 1 and 2")
    symbols = spectral_symbols(rep, _YBE_VARS)
    renames = {(0, 2): {"y": "z"}, (1, 2): {"x": "y", "y": "z"}}  # (x, y) -> (x, z) and (x, y) -> (y, z)
    sites, lhs_keys, rhs_keys = _ybe_sides(rep.site(1), rep.site(2))
    factors, site_gs = {}, {}  # (site, u, w) -> the reduced Rhat factor; site -> its g at (x, y)
    for site in sites:
        R, site_gs[site] = reduce_cleared(rhat_cleared(rep, site, f, "x", "y", symbols))
        factors[site, 0, 1] = R
        for (u, w), mapping in renames.items():
            factors[site, u, w] = R.map(lambda e: e.rename(mapping))

    lhs, rhs = (factors[a] * factors[b] * factors[c] for a, b, c in (lhs_keys, rhs_keys))
    # The difference cancels the denominator factors both sides share; the full
    # cross-multiplied residual is resid * prod(shared) * prod(g), and every factor is nonzero.
    resid = (lhs - rhs).M
    worst = 0
    if not resid.is_zero:
        shared = split_factors(lhs.factors, rhs.factors)[2]
        gs = [site_gs[site].rename(renames.get((u, w), {})) for site, u, w in lhs_keys + rhs_keys]  # one per factor
        common = math.prod(shared + gs)
        worst = max_product_terms(resid.entries, common)
    report = VerifyReport("ybe symbolic", mode={"kind": "symbolic", "vars": list(_YBE_VARS)})
    report.add_residual("ybe", worst)
    return report


# -- braided Yang-Baxter, randomized -------------------------------------------

MAX_RESAMPLES = 100  # consecutive pole or singular draws before a run gives up
SAMPLING_FAILURE = f"measure-zero sampling failure: {MAX_RESAMPLES} consecutive poles"


def _regular_draw(draw: Callable[[DetRng], object], rng: DetRng) -> tuple[object | None, int]:
    """(draw(rng), resamples), redrawing while a pole or singular factor is hit.

    The value is None once MAX_RESAMPLES draws in a row have failed.  Any
    other error propagates: no draw divides by zero, since poles and
    singular factors raise first, so a ZeroDivisionError is a defect.
    """
    for resamples in range(MAX_RESAMPLES):
        try:
            return draw(rng), resamples
        except (PoleError, SingularMatrixError):
            pass
    return None, MAX_RESAMPLES


def _min_poly(S: FieldMatrix) -> tuple[FieldMatrix, list[FieldMatrix]] | None:
    """Q[sigma] for sigma = S / s, when its dimension k, the degree of S's minimal polynomial mu, is below n.

    Returns (C, powers) for a square int S: C is the k x k int companion
    matrix of the monic mu, multiplication by t on Z[t]/mu in the basis
    1, t, ..., t^(k-1), and powers = [S^0, ..., S^(k-1)].  Returns None when
    k = n, having formed no power above S^(n-1).

    Fraction-free Krylov on vec(S^0), vec(S^1), ...: each power is reduced
    against the earlier ones by integer row operations, tracked as a
    combination of the powers.  The degree-1 step asks whether S is scalar:
    vec(S^0) has its pivot 1 at (0, 0), so S reduces to S - S[0, 0].  The
    first power that reduces to zero gives a relation whose leading
    coefficient, a product of pivots, is nonzero.  It is mu times that
    coefficient, and mu, a monic factor of S's monic integer characteristic
    polynomial, lies in Z[t], so the quotients are exact ints.
    """
    n, lam = S.rows, S.entries[0]
    reduced = S.shifted(1, -lam).entries
    if not any(reduced):  # S = lam * 1, mu = t - lam
        return (FieldMatrix(1, 1, [lam]), [FieldMatrix.identity(n, 1)]) if n > 1 else None
    if n == 2:  # not scalar, so k = n
        return None
    powers = [FieldMatrix.identity(n, 1), S]
    # (pivot, reduced vector, its coefficients on S^0, ..., S^(n-1))
    basis = [(0, powers[0].entries, [1] + [0] * (n - 1)),
             (next(i for i, x in enumerate(reduced) if x), reduced, [-lam, 1] + [0] * (n - 2))]
    for d in range(2, n):
        P = S * powers[-1]
        v, comb = P.entries, [int(j == d) for j in range(n)]
        for pivot, r, c in basis:
            b = v[pivot]
            if b:
                a = r[pivot]
                v = [a * x - b * y for x, y in zip(v, r)]
                comb = [a * x - b * y for x, y in zip(comb, c)]
        if not any(v):
            m = [c // comb[d] for c in comb[:d]]  # mu = t^d + m[d-1] t^(d-1) + ... + m[0]
            C = [int(i == j + 1) - (m[i] if j == d - 1 else 0) for i in range(d) for j in range(d)]
            return FieldMatrix(d, d, C), powers
        basis.append((next(i for i, x in enumerate(v) if x), v, comb))
        powers.append(P)
    return None


def _numeric_rhat(
    S: FieldMatrix, s: int, algebra: tuple[FieldMatrix, list[FieldMatrix]] | None, f_uw: tuple, f_wu: tuple
) -> tuple[FieldMatrix, int]:
    """Rhat = (1 - f_uw sigma)(1 - f_wu sigma)^-1 for sigma = S / s (ints, s != 0), from one inverse.

    algebra is _min_poly(S); f_uw = p_a / q_a and f_wu = p_b / q_b are int
    pairs, q != 0, in any scaling.  Every step runs on ints; returned
    cleared, as M = D * Rhat over the lcm D of its entry denominators.

    With f_wu = p_b / q_b, N' = q_b s - p_b S = q_b s (1 - f_wu sigma) is
    inverted in Q[sigma].  When k = n it is inverted as it stands, N'^-1 =
    X / det.  When k < n it is gamma - p_b t in Z[t]/mu, gamma = q_b s, whose
    inverse is the first column of that of the k x k companion pencil
    gamma - p_b C: N'^-1 = sum_j X[j, 0] S^j / det.  The pencil is singular
    exactly where N' is, when gamma / p_b is a root of mu, an eigenvalue of S.
    Either way the closing division leaves the one reduced pair.
    """
    (p_a, q_a), (p_b, q_b) = f_uw, f_wu
    if not p_b:  # 1 - f_uw sigma = (q_a s - p_a S) / (q_a s)
        M, D = S.shifted(-p_a, q_a * s), q_a * s
    else:
        # r = f_uw/f_wu = p/q gives 1 - f_uw sigma = r N + 1 - r for N = 1 - f_wu sigma, so
        # Rhat = r + (1 - r) N^-1 = ((q - p) q_b s N'^-1 + p) / q
        p, q = p_a * q_b, q_a * p_b
        if algebra is None:
            X, det = S.shifted(-p_b, q_b * s).inv()
            M = X.shifted((q - p) * q_b * s, p * det)
        else:
            C, powers = algebra
            X, det = C.shifted(-p_b, q_b * s).inv()
            c = [(q - p) * q_b * s * X[j, 0] for j in range(C.rows)]
            c[0] += p * det
            M = S.shifted(c[1] if C.rows > 1 else 0, c[0])
            for P, c_j in zip(powers[2:], c[2:]):
                M = M + P.scale(c_j)
        D = q * det
    g = math.gcd(D, *M.entries) * (1 if D > 0 else -1)  # reduced, with D > 0
    return FieldMatrix(M.rows, M.cols, [e // g for e in M.entries]), D // g


def ybe_random(rep: Rep, f: RatFunc, trials: int = 20, seed: int = 0) -> VerifyReport:
    """Randomized exact-evaluation check of the braided Yang-Baxter equation for the spectral function f."""
    if rep.n < 3:
        raise ValueError("the braided Yang-Baxter check needs generators at sites 1 and 2")
    as_int(trials, "trials", floor=1)
    as_int(seed, "seed")
    spectral_symbols(rep, _YBE_VARS)  # rejects a rep parameter named like a spectral variable
    report = VerifyReport(
        "ybe randomized",
        mode={"kind": "randomized", "seed": seed, "trials": trials, "samples": [], "resamples": 0},
    )
    cleared = {site: rep.site(site).cleared() for site in (1, 2)}  # sigma_i = S_i / s_i
    sites, lhs_keys, rhs_keys = _ybe_sides(cleared[1], cleared[2])
    keys = dict.fromkeys(lhs_keys + rhs_keys)  # the distinct Rhats of a draw
    site_evals = {site: evaluator(cleared[site][1], cleared[site][0].entries) for site in sites}
    f_eval, pairs = evaluator(f.den, [f.num]), list(permutations(range(3), 2))

    def draw(rng: DetRng):
        xs = [sample_fraction(rng) for _ in _YBE_VARS]
        params = {name: sample_fraction(rng) for name in rep.params}
        ints = {}  # each site as ints (S', s') with sigma = S' / s', and its Q[sigma]
        for site, site_eval in site_evals.items():
            ((entries, s),) = site_eval([params])
            S = FieldMatrix(rep.dim, rep.dim, entries)
            ints[site] = (S, s, _min_poly(S))
        # f at the six ordered pairs of spectral variables, one batch
        fv = {pair: (p, q) for pair, ([p], q) in zip(pairs, f_eval([{"x": xs[u], "y": xs[w]} for u, w in pairs]))}
        # each Rhat as (D * Rhat, D) over the ints
        R = {(site, u, w): _numeric_rhat(*ints[site], fv[u, w], fv[w, u]) for site, u, w in keys}
        return dict(zip(_YBE_VARS, xs)), params, R

    worst = 0
    for trial in range(trials):
        drawn, resamples = _regular_draw(draw, split_rng(seed, trial))
        report.mode["resamples"] += resamples
        if drawn is None:
            return report.error(SAMPLING_FAILURE)
        point, params, R = drawn
        # each side as the int pair (M1 M2 M3, D1 D2 D3)
        (lhs, c_lhs), (rhs, c_rhs) = (
            (R[a][0] * R[b][0] * R[c][0], R[a][1] * R[b][1] * R[c][1]) for a, b, c in (lhs_keys, rhs_keys)
        )
        # lhs/c_lhs - rhs/c_rhs is nonzero exactly where lhs c_rhs != rhs c_lhs
        worst = max(worst, sum(1 for a, b in zip(lhs.entries, rhs.entries) if a * c_rhs != b * c_lhs))
        report.mode["samples"].append(
            {name: format_scalar(val) for name, val in list(point.items()) + list(params.items())}
        )
    report.add_residual("ybe", worst)
    return report


# -- auxiliary identity suites ----------------------------------------------------


def _record(report: VerifyReport, label: str, lhs: ClearedMatrix, rhs: ClearedMatrix) -> None:
    report.add_residual(label, (lhs - rhs).residual_size())
    if lhs.M.is_zero and rhs.M.is_zero:
        report.notes.append(f"{label}: vacuous (both sides identically zero)")


def _suite(report: VerifyReport, rep: Rep, algebra: str, params: dict | None):
    """The setup both identity suites share.

    Returns (s1, s2, H1(z), H2(z), H1(v), H2(v), z, v): the sites and the
    H's as cleared matrices and z, v as polynomials, all over Q(z, v, rep
    params).  Each H_i(z) is built once (H_closed, lifted by map) and H_i(v)
    is its rename z -> v, a ring map: z and v hold the same place relative
    to every rep parameter, so the renamed factors are the ones built at v.
    Returns None, with report marked as an error, when the rep fails the
    relations of algebra at params.
    """
    if rep.n < 3:
        raise ValueError("identity suite needs generators at sites 1 and 2")
    symbols = spectral_symbols(rep, ("z", "v"))
    pre = check_relations(rep, relations_for(algebra, rep.n, params))
    if not pre.passed:
        report.residuals = [(f"precheck {label}", size) for label, size in pre.residuals]
        report.error("precondition failed: rep does not satisfy the relations")
        return None
    sites = [ClearedMatrix(*rep.site(site, symbols).cleared()) for site in (1, 2)]
    Hz = [H_closed(rep, site).map(lambda e: e.lift(symbols)) for site in (1, 2)]
    Hv = [H.map(lambda e: e.rename({"z": "v"})) for H in Hz]
    return (*sites, *Hz, *Hv, MultiPoly.var(symbols, "z"), MultiPoly.var(symbols, "v"))


def lemma_suite_A(rep: Rep, a, b, c) -> VerifyReport:
    """The four auxiliary identities behind the three-parameter baxterisation.

    Works over Q(z, v, rep params) with a != 0; the rep must first pass the
    three-parameter relations at (a, b, c).
    """
    a, b, c = map(as_scalar, (a, b, c))
    if a == 0:
        raise ValueError("identity suite requires a != 0")
    report = VerifyReport("lemma suite A", mode={"kind": "symbolic", "a": format_scalar(a)})
    ops = _suite(report, rep, "A", {"a": a, "b": b, "c": c})
    if ops is None:
        return report
    s1, s2, H1z, H2z, H1v, H2v, zz, vv = ops
    h = h_fun(a, b, c).lift(zz.vars)  # h(z) = nz / dz, kept apart
    nz, dz = h.num, h.den
    nv, dv = nz.rename({"z": "v"}), dz.rename({"z": "v"})  # h(v): a rename, so no RatFunc() and no gcd
    M = s2 * s2 * s1 - s2 * s1 * s1  # the recurring cubic difference

    _record(report, "rel1a", (s2 * s2 * s2 * s1 * s1 - s2 * s2 * s1 * s1 * s1).scale(a), M.scale(-c))
    _record(report, "rel1b", (s1 * s1 * s2 * s2 * s2 - s1 * s1 * s1 * s2 * s2).scale(a), M.scale(-c))
    _record(report, "rel2a", s2 * H1z - H2z * s1, M.scale(zz * nz, dz))
    _record(report, "rel2b", H1z * s2 - s1 * H2z, M.scale(zz * nz, dz))
    _record(report, "rel4", H2v * H1z - H2z * H1v, M.scale((vv - zz) * nz * nv, dz, dv))
    rel5_lhs = s1 * H2v * H1z - H2z * H1v * s2
    rel5_rhs = (
        (s2 - s1).scale(a, zz, vv)
        + M.scale((1 / a) * (c * zz * vv - b * vv - a) * nz * nv, dz, dv)
        + (H1v - H2v).scale(a * dv, vv, vv - zz, nv)  # a / (v (v - z) h(v))
        - (H1z - H2z).scale(a * dz, zz, vv - zz, nz)
    )
    _record(report, "rel5", rel5_lhs, rel5_rhs)
    return report


def lemma_suite_B(rep: Rep) -> VerifyReport:
    """The five auxiliary identities behind the parameter-free baxterisation."""
    report = VerifyReport("lemma suite B", mode={"kind": "symbolic"})
    ops = _suite(report, rep, "B", None)
    if ops is None:
        return report
    s1, s2, H1z, H2z, H1v, H2v, zz, vv = ops
    K = s2 * s2 * s1 - s2 * s1 * s1 + s1 * s1 - s2 * s2  # recurring combination
    _record(report, "relb1", s2 * s2 * s2 * s1 * s1 - s2 * s2 * s1 * s1 * s1,
            s2 * s2 * s2 - s1 * s1 * s1 + s1 * s1 - s2 * s2)
    _record(report, "rel2b", s2 * H1z - H2z * s1, K.scale(zz, zz - 1) + (s2 - s1) + (H1z - H2z))
    _record(report, "rel2bb", s1 * H2z - H1z * s2, (s2 - s1).scale(1, zz - 1) - H1z + H2z)
    rel4b_rhs = (K - s1 + s2).scale(vv - zz, vv - 1, zz - 1) + (H2z - H1z).scale(1, vv - 1) - (H2v - H1v).scale(1, zz - 1)
    _record(report, "rel4b", H2v * H1z - H2z * H1v, rel4b_rhs)
    rel5b_rhs = (
        (s2 - s1).scale(vv * zz - zz + 1, zz, zz - 1, vv - 1)
        + K.scale(vv, vv - 1, zz - 1)
        + (H1v - H2v).scale(vv - zz + 1, vv - zz, zz - 1)
        - (H1z - H2z).scale(vv, zz, vv - 1, vv - zz)
    )
    _record(report, "rel5b", s1 * H2v * H1z - H2z * H1v * s2, rel5b_rhs)
    return report


# -- transfer-matrix commutation harness ---------------------------------------------


MAX_CHAIN_LENGTH = 8  # d <= 2 for every square builtin: monodromies up to 512 x 512


def _transfer_matrices(rhat: FieldMatrix, d: int, lengths: Sequence[int]) -> dict[int, FieldMatrix]:
    """{L: t_L} with t_L = tr_0 R_{0L} ... R_{01} and R = P * rhat, from one monodromy.

    Leg 0 is the auxiliary space (the most significant digit).  M_0 = 1 on it,
    and each step M_L = R_{0L} (M_{L-1} (x) 1) appends leg L as the least
    significant digit:
    M_L[(a,I,i),(c,J,j)] = sum_b R[(a,i),(b,j)] M_{L-1}[(b,I),(c,J)],
    with the leg swap read off the indices, R[(a,i),(b,j)] = rhat[(i,a),(b,j)].
    Rows are kept as {column: entry} dicts of nonzero entries, and only the
    nonzero R entries are visited.  Each requested length is traced from the
    monodromy of that length.  The arithmetic is that of the rhat entries: an
    int rhat D * rhat' gives the int matrices D^L * t(rhat').
    """
    nonzero = [
        [(b, j, rhat[i * d + a, b * d + j]) for b in range(d) for j in range(d) if rhat[i * d + a, b * d + j]]
        for a in range(d)
        for i in range(d)
    ]
    rows: list[dict[int, object]] = [{a: 1} for a in range(d)]
    out = {}
    for L in range(1, max(lengths) + 1):
        chain = d ** (L - 1)  # chain states I of M_{L-1}
        new_rows = []
        for a in range(d):
            for I in range(chain):
                for i in range(d):
                    row: dict[int, object] = {}
                    for b, j, r in nonzero[a * d + i]:
                        for col, m in rows[b * chain + I].items():
                            key = col * d + j
                            row[key] = row.get(key, 0) + r * m
                    new_rows.append(row)
        rows = new_rows
        if L in lengths:
            dim = d ** (L + 1)
            entries = [0] * (dim * dim)
            for r, row in enumerate(rows):
                for col, m in row.items():
                    entries[r * dim + col] = m
            out[L] = FieldMatrix(dim, dim, entries).partial_trace_first(d)
    return out


def check_chain_lengths(lengths: Sequence[int]) -> Sequence[int]:
    """lengths itself if a nonempty list or tuple of ints (not bools) in 1..MAX_CHAIN_LENGTH, none repeated, else ValueError."""
    seen = set()
    for L in as_list(lengths, "lengths"):
        if as_int(L, "lengths", 1, MAX_CHAIN_LENGTH) in seen:
            raise ValueError(f"chain length {L} is repeated")
        seen.add(L)
    return lengths


def choose_reference_point(f: RatFunc) -> int:
    """y0 = 0 unless the spectral function f(x, y) has a pole there, else y0 = 1."""
    for y0 in (0, 1):
        # both orders f(x, y0) and f(y0, x) must stay finite as functions of x
        if f.den.at("y", y0) and f.den.at("x", y0):
            return y0
    raise ValueError("no admissible reference point among {0, 1}")


def transfer_commute(
    rep: Rep,
    i: int,
    f: RatFunc,
    lengths: Sequence[int],
    count: int = 5,
    seed: int = 0,
    corrupt: bool = False,
) -> VerifyReport:
    """Exact commutation of transfer matrices built from one two-site R-matrix and the spectral function f.

    The rep dimension must be a perfect square d*d; the site-i matrix is read
    as an operator on V (x) V with dim V = d.  R(x) = P * Rhat(x, y0) with P
    the leg swap; the transfer matrix t_L is the auxiliary-space partial trace
    of the monodromy R_{0L} ... R_{01}.  One monodromy per point is extended a
    site at a time up to the longest requested length and traced at each
    requested length (see _transfer_matrices).  The commutator [t(x1), t(x2)]
    is checked exactly at each rational point pair for each L in lengths
    (each in 1..MAX_CHAIN_LENGTH, none repeated); at least one pair is
    checked.  corrupt=True perturbs one entry of every Rhat as a negative
    control; it needs d >= 2.

    The usage checks, y0, the seeded randomized Yang-Baxter precheck, the
    point-pair draw, each point's Rhat and each point's monodromy run once per
    call; only the traces and the commutators run per length.  Residuals are
    labelled "L=... pair..." and come length by length in the given order,
    notes "L=...: ...", and mode["runs"] has one record per length.  A failed
    precheck or sampling is an error with one note per length.

    All chain arithmetic runs on Python ints: each (perturbed) Rhat is scaled
    by one common denominator D, so the chain builds D^L * t exactly.  Since
    [c1 t1, c2 t2] = c1 c2 [t1, t2] for nonzero c1, c2, the commutator of the
    scaled matrices has the same nonzero entries as the rational one, and the
    reported residual sizes are unchanged.  A per-row scaling would not
    commute with the chain product, hence one scalar per matrix.
    """
    if rep.params:
        raise ValueError("transfer harness needs a numeric representation (no free parameters)")
    d = math.isqrt(rep.dim)
    if d * d != rep.dim:
        raise ValueError(f"rep dimension {rep.dim} is not a perfect square")
    if as_bool(corrupt, "corrupt") and d < 2:
        raise ValueError(f"corrupt needs a site matrix on V (x) V with dim V >= 2, got dim V = {d}")
    check_chain_lengths(lengths)
    as_int(count, "pairs", floor=1)  # the job field's name
    as_int(seed, "seed")
    S, s = rep.site(i).cleared()
    ((entries, s),) = evaluator(s, S.entries)([{}])  # the constant sigma = S / s, as ints
    S = FieldMatrix(S.rows, S.cols, entries)
    y0 = choose_reference_point(f)
    base = {"kind": "randomized", "seed": seed, "y0": format_scalar(y0), "corrupt": corrupt}
    runs = [{**base, "L": L, "points": []} for L in lengths]
    report = VerifyReport("transfer commutation", mode={"kind": "randomized", "seed": seed, "runs": runs})

    def error(note: str) -> VerifyReport:
        for L in lengths:
            report.error(f"L={L}: {note}")
        return report

    if not ybe_random(rep, f, trials=3, seed=_mix(seed ^ 0xB7E1)).passed:
        return error("precondition failed: randomized Yang-Baxter check did not pass")

    algebra, f_eval = _min_poly(S), evaluator(f.den, [f.num])

    def rhat_at(xval: Fraction) -> FieldMatrix:
        """D * Rhat(xval, y0), an int matrix."""
        (([p_a], q_a), ([p_b], q_b)) = f_eval([{"x": xval, "y": y0}, {"x": y0, "y": xval}])
        M, D = _numeric_rhat(S, s, algebra, (p_a, q_a), (p_b, q_b))
        if corrupt:
            # Rhat[1] += 1, a weight-breaking entry whose denominator stays the
            # same; perturbations inside the conserved blocks of this family
            # do not disturb commutation
            M.entries[1] += D
        return M

    def pair_at(x1, x2):
        return (x1, x2), (rhat_at(x1), rhat_at(x2))

    pairs = []
    rng = split_rng(seed, 0xF00D)
    while len(pairs) < count:
        pair, _ = _regular_draw(lambda rng: pair_at(sample_fraction(rng), sample_fraction(rng)), rng)
        if pair is None:
            return error(SAMPLING_FAILURE)
        pairs.append(pair)

    sizes = []  # sizes[k][L]: nonzero entries of pair k's commutator at chain length L
    for _, rhats in pairs:
        ts1, ts2 = (_transfer_matrices(rhat, d, lengths) for rhat in rhats)
        sizes.append({L: sum(1 for e in (ts1[L] * ts2[L] - ts2[L] * ts1[L]).entries if e) for L in lengths})
    for L, run in zip(lengths, runs):
        for k, ((x1, x2), _) in enumerate(pairs):
            report.add_residual(f"L={L} pair{k} [t({format_scalar(x1)}), t({format_scalar(x2)})]", sizes[k][L])
            run["points"].append([format_scalar(x1), format_scalar(x2)])
    return report
