"""Concrete matrix representations and relation checking.

A Rep assigns one square matrix over Q(params) to every generator index
1 .. n-1.  Built-in families cover the two-dimensional representations of the
three cubic-relation algebras, a four-dimensional two-site Hecke generator
(with an explicit tensor interpretation used by the transfer harness), a
two-dimensional Hecke pair with distinct generator images, and scalar
representations.  Checking a RelationSet against a Rep is the evaluation
homomorphism: substitute matrices for generators and test for the exact zero
matrix, element by element.  Each element is a sum of cleared terms
(exactnum.ClearedMatrix) added with no gcd, zero exactly when its polynomial
matrix is; only a nonzero one is reduced to its canonical entries for its size.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

from .exactnum import ClearedMatrix, FieldMatrix, MultiPoly, RatFunc, canonical_vars, format_scalar
from .exactnum.scalar import as_int, as_list, as_scalar, one_of
from .ncalg import NCPoly, RelationSet, relations_for, resolve_params, site_relations
from .report import VerifyReport

CORRESPONDENCE_KINDS = ("hecke_in_A", "braid_coset_to_A", "B_to_A_shift")


class Rep:
    """Matrices over Q(params) for the generators of an n-strand algebra.

    Every entry is a RatFunc over exactly params: a symbol the rep does not
    declare could merge with a spectral variable of the same name.  Two reps
    are equal when all four fields are.
    """

    def __init__(self, n: int, dim: int, params: tuple[str, ...], matrices: dict[int, FieldMatrix]):
        expected = set(range(1, n))
        if set(matrices) != expected:
            raise ValueError(f"need matrices for generators {sorted(expected)}")
        for i, m in matrices.items():
            if m.rows != dim or m.cols != dim:
                raise ValueError(f"generator {i}: expected {dim}x{dim}")
            if not all(isinstance(e, RatFunc) and e.vars == params for e in m.entries):
                raise ValueError(f"generator {i}: entries must be rational functions over {params}")
        self.n = n
        self.dim = dim
        self.params = params
        self.matrices = matrices

    def __eq__(self, other) -> bool:
        if not isinstance(other, Rep):
            return NotImplemented
        return (self.n, self.dim, self.params, self.matrices) == (other.n, other.dim, other.params, other.matrices)

    __hash__ = None

    def site(self, i: int, symbols: tuple[str, ...] | None = None) -> FieldMatrix:
        """Generator i's matrix, lifted to symbols when they are given."""
        m = self.matrices[as_int(i, "site", 1, self.n - 1)]
        return m if symbols is None else m.map_entries(lambda e: e.lift(symbols))


def _b3_rows(one, zero, nu, mu):
    return [[[nu * mu, zero], [nu, one]], [[one, -mu], [zero, nu * mu]]]


# family -> (parameter names, rows(one, zero, *parameters): the rows of
# generator 1's matrix, generator 2's, ... over the resolved parameters)
_FAMILIES = {
    "A3_2dim": (("c", "mu"), lambda one, zero, c, mu: [
        [[zero, c], [zero, zero]],
        [[mu, -(mu * mu)], [one, -mu]],
    ]),
    "B3_2dim": (("nu", "mu"), _b3_rows),
    "C3_2dim": (("nu", "mu"), lambda *args: _b3_rows(*args)[::-1]),  # the index flip of B3_2dim
    "Hecke3_std": (("q",), lambda one, zero, q: [
        [[q, zero, zero, zero], [zero, zero, q, zero], [zero, -one, q + one, zero], [zero, zero, zero, q]],
    ] * 2),
    "Hecke3_burau": (("q",), lambda one, zero, q: [
        [[q, one], [zero, one]],
        [[one, zero], [-q, q]],
    ]),
}
BUILTIN_NAMES = (*_FAMILIES, "scalar")


def builtin_rep(name: str, **params) -> Rep:
    """Built-in representation families.

    Parameters are resolved by ncalg.resolve_params: None or omitted stays
    symbolic, a RatFunc is lifted (RatFunc.var(("t",), "t") names the symbol
    t), and an int, a Fraction or a "p/q" string is a constant.
      A3_2dim(c, mu)       2x2, both generators square to zero
      B3_2dim(nu, mu)      2x2
      C3_2dim(nu, mu)      the index flip of B3_2dim
      Hecke3_std(q)        4x4 two-site generator used for both sites; the
                           matrix also satisfies the tensor-leg braid
                           relation on (C^2)^3, which the transfer harness
                           relies on
      Hecke3_burau(q)      2x2 with distinct generator images
      scalar(values)       1x1 matrices; values is a list or a tuple of one
                           value per generator, (None, None) by default
    """
    if one_of(name, BUILTIN_NAMES, "builtin") == "scalar":
        return _scalar_rep(**params)
    names, rows = _FAMILIES[name]
    try:
        symbols, vals = resolve_params(names, params)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc
    gens = rows(RatFunc.const(symbols, 1), RatFunc.const(symbols, 0), *(vals[p] for p in names))
    return Rep(len(gens) + 1, len(gens[0]), symbols, {i: FieldMatrix.from_rows(g) for i, g in enumerate(gens, 1)})


def _scalar_rep(values: list | tuple = (None, None), **extras) -> Rep:
    """One 1x1 matrix per generator, n = len(values) + 1; every None is the one symbol lam, a RatFunc."""
    _reject_extras("scalar", extras)
    n = len(as_list(values, "values")) + 1
    names = [str(i) for i in range(1, n)]
    lam = RatFunc.var(("lam",), "lam")
    symbols, vals = resolve_params(names, {k: lam if v is None else v for k, v in zip(names, values)})
    return Rep(n, 1, symbols, {i: FieldMatrix(1, 1, [vals[str(i)]]) for i in range(1, n)})


def _reject_extras(name: str, params: dict) -> None:
    if params:
        raise ValueError(f"{name}: unexpected parameters {sorted(params)}")


def flip_rep(rep: Rep) -> Rep:
    """Reassign generator j's matrix to generator n - j."""
    return Rep(rep.n, rep.dim, rep.params, {rep.n - i: m for i, m in rep.matrices.items()})


# -- relation checking --------------------------------------------------------


def evaluate_element(element: NCPoly, sites: Mapping[int, ClearedMatrix], dim: int, symbols: tuple[str, ...]) -> ClearedMatrix:
    """Image of a free-algebra element under the evaluation homomorphism, from the cleared sites S_i / s_i.

    A coefficient n/d scales its word's product by n over the extra factor d;
    the empty word is the identity, and an element with no terms is zero.
    """
    one = MultiPoly.const(symbols, 1)
    acc = None
    for word, coeff in element.terms.items():
        m = sites[word[0]] if word else ClearedMatrix(FieldMatrix.identity(dim, one))
        for idx in word[1:]:
            m = m * sites[idx]
        coeff = coeff.lift(symbols)
        term = m.scale(coeff.num, coeff.den)
        acc = term if acc is None else acc + term
    return ClearedMatrix(FieldMatrix(dim, dim, [one - one] * (dim * dim))) if acc is None else acc


def check_relations(rep: Rep, rels: RelationSet) -> VerifyReport:
    """Substitute the rep into every relation element; pass iff all are zero.

    Each site is lifted to the joint symbols of the rep and the relations and cleared once.
    """
    if rep.n != rels.n:
        raise ValueError(f"rep has n={rep.n} but relations have n={rels.n}")
    symbols = canonical_vars(set(rep.params) | set(rels.symbols))
    sites = {i: ClearedMatrix(*rep.site(i, symbols).cleared()) for i in rep.matrices}
    report = VerifyReport(f"{rels.algebra}({rels.n}) relations")
    for label, element in rels.elements:
        report.add_residual(label, evaluate_element(element, sites, rep.dim, symbols).residual_size())
    return report


# -- scalar representations ----------------------------------------------------


class ScalarRepClass:
    """One family of scalar (1x1) representations."""

    def __init__(self, kind: str, values: tuple[Fraction, ...] | None, description: str):
        self.kind = kind  # "uniform" or "zero-pattern"
        self.values = values  # None when the roots are irrational or non-real
        self.description = description

    def to_record(self) -> dict:
        return {
            "kind": self.kind,
            "values": None if self.values is None else [format_scalar(v) for v in self.values],
            "description": self.description,
        }


def _values_text(values) -> str:
    return "values in {" + ", ".join(format_scalar(v) for v in values) + "}"


def _sqrt_fraction(value: Fraction) -> Fraction | None:
    """Exact rational square root, or None."""
    if value < 0:
        return None
    n, d = value.numerator, value.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def classify_scalar(algebra: str, params: Mapping | None = None) -> list[ScalarRepClass]:
    """The two families of scalar representations.

    The uniform family always exists.  The zero-pattern family allows each
    generator independently to be 0 or a root of the characteristic quadratic
    a*l^2 + b*l - c (for the three-parameter algebra, whose a, b and c are
    read by ncalg.resolve_params and must all be rational; the quadratic
    degenerates to the one root c/b at a = 0, and to none at a = b = 0).
    """
    uniform = ScalarRepClass("uniform", None, "every generator equal to one free scalar")
    given = dict(params or {})
    if one_of(algebra, ("A", "B", "C"), "algebra") != "A":
        _reject_extras(algebra, given)
        return [uniform, ScalarRepClass("zero-pattern", (Fraction(0), Fraction(1)), "values in {0, 1}")]
    _, vals = resolve_params(("a", "b", "c"), given)
    if not all(v.is_constant() for v in vals.values()):
        raise ValueError("scalar classification needs rational a, b, c")
    a, b, c = (vals[name].constant_value() for name in ("a", "b", "c"))
    if a:
        disc = b * b + 4 * a * c
        root = _sqrt_fraction(disc)
        if root is None:
            text = f"values 0 and the two ({'non-real' if disc < 0 else 'irrational'}) roots of the quadratic"
            return [uniform, ScalarRepClass("zero-pattern", None, text)]
        roots = {(-b - root) / (2 * a), (-b + root) / (2 * a)}
    elif b:
        roots = {c / b}
    elif c:
        roots = set()
    else:
        raise ValueError("degenerate algebra parameters (0, 0, 0): every scalar assignment works")
    values = tuple(sorted({Fraction(0)} | roots))
    return [uniform, ScalarRepClass("zero-pattern", values, _values_text(values))]


def verify_scalar(assignment: Sequence[Fraction], algebra: str, params: Mapping | None = None) -> bool:
    """Substitute one scalar per generator into the relation set; exact pass/fail.

    The strand count n is len(assignment) + 1.  This is the direct evaluation
    route, independent of classify_scalar.
    """
    rep = builtin_rep("scalar", values=[as_scalar(v) for v in assignment])
    rels = relations_for(algebra, rep.n, params)
    return check_relations(rep, rels).passed


# -- correspondence checks -------------------------------------------------------


def _shift_rep(rep: Rep, a: RatFunc, c: RatFunc) -> Rep:
    """Lift every generator matrix M to the symbols of a and c (one field), then map it to a * M + c * I."""
    return Rep(rep.n, rep.dim, a.vars, {i: rep.site(i, a.vars).shifted(a, c) for i in rep.matrices})


def _coset_families(b: RatFunc):
    """The two cubic families cutting the braid algebra down to the shifted
    three-parameter algebra with (0, b, -b^2)."""
    bb = b * b
    return (
        ("coset1", lambda s, t: t**2 * s - t * s**2 - (bb * (s - t) - b * (s**2 - t**2))),
        ("coset2", lambda s, t: s**2 * t - s * t**2 - (bb * (t - s) - b * (t**2 - s**2))),
    )


# the extra relation of the B-to-A remark: ts^2 - t^2 s = s^2 - t^2 + t - s
_REMARK = (("remark", lambda s, t: t * s**2 - t**2 * s - (s**2 - t**2 + t - s)),)


def correspondence_check(kind: str, rep: Rep, q=None, b=None) -> VerifyReport:
    """Representation-level coset and shift correspondences.

    hecke_in_A: a rep satisfying the Hecke relations at q also satisfies the
    three-parameter relations at (0, 0, -q).
    braid_coset_to_A: a braid rep satisfying two extra cubic relations maps,
    via sigma - b, to a rep of the three-parameter algebra at (0, b, -b^2).
    B_to_A_shift: a B rep satisfying the extra remark relation maps, via
    b*(sigma - 1), to a rep at (0, b, -b^2) (b != 0).

    q belongs to hecke_in_A alone and b to the other two kinds; giving a kind
    the parameter it does not use raises ValueError.  The input rep must pass
    its own source relations; failures there are reported with status "error"
    and the offending residuals.
    """
    one_of(kind, CORRESPONDENCE_KINDS, "kind")
    given = {name: value for name, value in (("q", q), ("b", b)) if value is not None}
    if kind == "B_to_A_shift":
        given.setdefault("b", Fraction(1))
    try:
        param_symbols, vals = resolve_params(("q",) if kind == "hecke_in_A" else ("b",), given)
    except ValueError as exc:
        raise ValueError(f"{kind}: {exc}") from exc
    symbols = canonical_vars(set(rep.params) | set(param_symbols))
    report = VerifyReport(f"correspondence {kind}")

    if kind == "hecke_in_A":
        q_rf = vals["q"].lift(symbols)
        shifted = rep
        prechecks = [("precheck Hecke:", relations_for("Hecke", rep.n, {"q": q_rf}))]
        target, target_params = "A(0,0,-q)", {"a": 0, "b": 0, "c": -q_rf}
    else:
        b_rf = vals["b"].lift(symbols)
        if not b_rf:
            raise ValueError(f"{kind} requires b != 0")
        if kind == "braid_coset_to_A":
            source, families, shifted = "Braid", _coset_families(b_rf), _shift_rep(rep, RatFunc.const(symbols, 1), -b_rf)
        else:  # B_to_A_shift: sigma -> b*(sigma - 1), the inverse of sigma -> sigma/b + 1
            source, families, shifted = "B", _REMARK, _shift_rep(rep, b_rf, -b_rf)
        prechecks = [
            (f"precheck {'braid' if source == 'Braid' else source}:", relations_for(source, rep.n)),
            ("precheck ", RelationSet(kind, rep.n, symbols, site_relations(rep.n, symbols, families))),
        ]
        target, target_params = "A(0,b,-b^2)", {"a": 0, "b": b_rf, "c": -(b_rf * b_rf)}

    for prefix, rels in prechecks:
        for label, size in check_relations(rep, rels).residuals:
            report.add_residual(prefix + label, size)
            if size:
                report.error(f"precondition failed: {label}")
    if report.status == "error":
        return report
    for label, size in check_relations(shifted, relations_for("A", rep.n, target_params)).residuals:
        report.add_residual(f"{target}:{label}", size)
    return report
