"""Concrete matrix representations and relation checking.

A Rep assigns one square matrix over Q(params) to every generator index
1 .. n-1.  Built-in families cover the two-dimensional representations of the
three cubic-relation algebras, a four-dimensional two-site Hecke generator
(with an explicit tensor interpretation used by the transfer harness), a
two-dimensional Hecke pair with distinct generator images, and scalar
representations.  Checking a RelationSet against a Rep is the evaluation
homomorphism: substitute matrices for generators and test for the exact zero
matrix, element by element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .exactnum import FieldMatrix, RatFunc, canonical_vars
from .ncalg import NCPoly, RelationSet, relations_for
from .report import VerifyReport

BUILTIN_NAMES = ("A3_2dim", "B3_2dim", "C3_2dim", "Hecke3_std", "Hecke3_burau", "scalar")

CORRESPONDENCE_KINDS = ("hecke_in_A", "braid_coset_to_A", "B_to_A_shift")


@dataclass
class Rep:
    """Matrices over Q(params) for the generators of an n-strand algebra."""

    n: int
    dim: int
    params: tuple[str, ...]
    matrices: dict[int, FieldMatrix]

    def __post_init__(self):
        expected = set(range(1, self.n))
        if set(self.matrices) != expected:
            raise ValueError(f"need matrices for generators {sorted(expected)}")
        for i, m in self.matrices.items():
            if m.rows != self.dim or m.cols != self.dim:
                raise ValueError(f"generator {i}: expected {self.dim}x{self.dim}")

    def lift(self, symbols: tuple[str, ...]) -> "Rep":
        if symbols == self.params:
            return self
        mats = {i: m.map_entries(lambda e: e.lift(symbols)) for i, m in self.matrices.items()}
        return Rep(self.n, self.dim, symbols, mats)

    def evaluate(self, point: Mapping[str, Fraction]) -> dict[int, FieldMatrix]:
        """Numeric matrices at a full rational assignment of the parameters."""
        return {i: m.map_entries(lambda e: e.eval(point)) for i, m in self.matrices.items()}

    def serialize(self) -> dict:
        return {
            "n": self.n,
            "dim": self.dim,
            "params": list(self.params),
            "matrices": {
                str(i): [[str(e) for e in m.row(r)] for r in range(m.rows)]
                for i, m in self.matrices.items()
            },
        }


def _param(value, default_symbol: str) -> tuple[object, set[str]]:
    """Normalize one rep parameter: None means 'stay symbolic'."""
    if value is None:
        return default_symbol, {default_symbol}
    if isinstance(value, str):
        return value, {value}
    if isinstance(value, (int, Fraction)):
        return Fraction(value), set()
    raise ValueError(f"parameter must be rational, a symbol name, or None; got {value!r}")


def _entry(value, symbols: tuple[str, ...]) -> RatFunc:
    if isinstance(value, str):
        return RatFunc.var(symbols, value)
    if isinstance(value, RatFunc):
        return value.lift(symbols)
    return RatFunc.const(symbols, value)


def _matrix(rows: Sequence[Sequence], symbols: tuple[str, ...]) -> FieldMatrix:
    return FieldMatrix.from_rows([[_entry(e, symbols) for e in row] for row in rows])


def builtin_rep(name: str, **params) -> Rep:
    """Built-in representation families.

    Parameters default to symbolic (pass None or omit); rationals fix them.
      A3_2dim(c, mu)       2x2, both generators square to zero
      B3_2dim(nu, mu)      2x2
      C3_2dim(nu, mu)      the index flip of B3_2dim
      Hecke3_std(q)        4x4 two-site generator used for both sites; the
                           matrix also satisfies the tensor-leg braid
                           relation on (C^2)^3, which the transfer harness
                           relies on
      Hecke3_burau(q)      2x2 with distinct generator images
      scalar(values, n)    1x1 matrices; values is one rational or symbol
                           name per generator
    """
    if name == "A3_2dim":
        c, syms_c = _param(params.pop("c", None), "c")
        mu, syms_m = _param(params.pop("mu", None), "mu")
        _reject_extras(name, params)
        symbols = canonical_vars(syms_c | syms_m)
        mu_rf = _entry(mu, symbols)
        s1 = _matrix([[0, c], [0, 0]], symbols)
        s2 = FieldMatrix.from_rows(
            [[mu_rf, -(mu_rf * mu_rf)], [RatFunc.one(symbols), -mu_rf]]
        )
        return Rep(3, 2, symbols, {1: s1, 2: s2})

    if name in ("B3_2dim", "C3_2dim"):
        nu, syms_n = _param(params.pop("nu", None), "nu")
        mu, syms_m = _param(params.pop("mu", None), "mu")
        _reject_extras(name, params)
        symbols = canonical_vars(syms_n | syms_m)
        nu_rf, mu_rf = _entry(nu, symbols), _entry(mu, symbols)
        one, zero = RatFunc.one(symbols), RatFunc.zero(symbols)
        s1 = FieldMatrix.from_rows([[nu_rf * mu_rf, zero], [nu_rf, one]])
        s2 = FieldMatrix.from_rows([[one, -mu_rf], [zero, nu_rf * mu_rf]])
        rep = Rep(3, 2, symbols, {1: s1, 2: s2})
        return flip_rep(rep) if name == "C3_2dim" else rep

    if name == "Hecke3_std":
        q, syms_q = _param(params.pop("q", None), "q")
        _reject_extras(name, params)
        symbols = canonical_vars(syms_q)
        q_rf = _entry(q, symbols)
        one, zero = RatFunc.one(symbols), RatFunc.zero(symbols)
        s = FieldMatrix.from_rows(
            [
                [q_rf, zero, zero, zero],
                [zero, zero, q_rf, zero],
                [zero, -one, q_rf + one, zero],
                [zero, zero, zero, q_rf],
            ]
        )
        return Rep(3, 4, symbols, {1: s, 2: s})

    if name == "Hecke3_burau":
        q, syms_q = _param(params.pop("q", None), "q")
        _reject_extras(name, params)
        symbols = canonical_vars(syms_q)
        q_rf = _entry(q, symbols)
        one, zero = RatFunc.one(symbols), RatFunc.zero(symbols)
        s1 = FieldMatrix.from_rows([[q_rf, one], [zero, one]])
        s2 = FieldMatrix.from_rows([[one, zero], [-q_rf, q_rf]])
        return Rep(3, 2, symbols, {1: s1, 2: s2})

    if name == "scalar":
        values = params.pop("values", None)
        n = params.pop("n", 3)
        _reject_extras(name, params)
        if values is None:
            values = ["lam"] * (n - 1)
        if len(values) != n - 1:
            raise ValueError(f"need {n - 1} scalar values for n={n}")
        syms = set()
        vals = []
        for v in values:
            v, s = _param(v, "lam")
            vals.append(v)
            syms |= s
        symbols = canonical_vars(syms)
        mats = {i + 1: FieldMatrix(1, 1, [_entry(v, symbols)]) for i, v in enumerate(vals)}
        return Rep(n, 1, symbols, mats)

    raise ValueError(f"unknown representation {name!r}, expected one of {BUILTIN_NAMES}")


def _reject_extras(name: str, params: dict) -> None:
    if params:
        raise ValueError(f"{name}: unexpected parameters {sorted(params)}")


def flip_rep(rep: Rep) -> Rep:
    """Reassign generator j's matrix to generator n - j."""
    return Rep(rep.n, rep.dim, rep.params, {rep.n - i: m for i, m in rep.matrices.items()})


# -- relation checking --------------------------------------------------------


def _joint_symbols(rep: Rep, rels: RelationSet) -> tuple[str, ...]:
    return canonical_vars(set(rep.params) | set(rels.symbols))


def evaluate_element(element: NCPoly, matrices: Mapping[int, FieldMatrix], dim: int, symbols: tuple[str, ...]) -> FieldMatrix:
    """Image of a free-algebra element under the evaluation homomorphism."""
    acc = FieldMatrix.zeros(dim, dim, RatFunc.zero(symbols))
    identity = FieldMatrix.identity(dim, RatFunc.one(symbols))
    for word, coeff in element.terms.items():
        m = identity
        for idx in word:
            m = m * matrices[idx]
        acc = acc + m.scale(coeff.lift(symbols))
    return acc


def _residual_size(m: FieldMatrix) -> int:
    return max((e.num_terms() for e in m.entries if e), default=0)


def check_relations(rep: Rep, rels: RelationSet, name: str | None = None) -> VerifyReport:
    """Substitute the rep into every relation element; pass iff all are zero."""
    if rep.n != rels.n:
        raise ValueError(f"rep has n={rep.n} but relations have n={rels.n}")
    symbols = _joint_symbols(rep, rels)
    lifted = rep.lift(symbols)
    report = VerifyReport(name or f"{rels.algebra}({rels.n}) relations")
    for label, element in rels.elements:
        value = evaluate_element(element, lifted.matrices, rep.dim, symbols)
        report.add_residual(label, 0 if value.is_zero else _residual_size(value))
    return report


# -- scalar representations ----------------------------------------------------


@dataclass
class ScalarRepClass:
    """One family of scalar (1x1) representations."""

    kind: str  # "uniform" or "zero-pattern"
    values: tuple[Fraction, ...] | None  # None when the roots are irrational
    description: str

    def to_record(self) -> dict:
        from .exactnum import format_scalar

        return {
            "kind": self.kind,
            "values": None if self.values is None else [format_scalar(v) for v in self.values],
            "description": self.description,
        }


def _values_text(values) -> str:
    from .exactnum import format_scalar

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
    a*l^2 + b*l - c (for the three-parameter algebra; the value is c/b when
    a = 0 and b != 0, and the quadratic degenerates entirely at a = b = 0).
    """
    uniform = ScalarRepClass("uniform", None, "every generator equal to one free scalar")
    given = dict(params or {})
    if algebra in ("B", "C"):
        _reject_extras(algebra, given)
        return [uniform, ScalarRepClass("zero-pattern", (Fraction(0), Fraction(1)), "values in {0, 1}")]
    if algebra == "A":
        try:
            a = Fraction(given.pop("a", 0))
            b = Fraction(given.pop("b", 0))
            c = Fraction(given.pop("c", 0))
        except (TypeError, ValueError) as exc:
            raise ValueError("classify_scalar needs rational a, b, c") from exc
        _reject_extras(algebra, given)
        if a == 0:
            if b == 0:
                if c == 0:
                    raise ValueError("degenerate algebra parameters (0, 0, 0): every scalar assignment works")
                return [
                    uniform,
                    ScalarRepClass("zero-pattern", (Fraction(0),), "only the zero value"),
                ]
            return [
                uniform,
                ScalarRepClass("zero-pattern", (Fraction(0), c / b), _values_text((Fraction(0), c / b))),
            ]
        disc = b * b + 4 * a * c
        root = _sqrt_fraction(disc)
        if root is None:
            return [
                uniform,
                ScalarRepClass(
                    "zero-pattern",
                    None,
                    "values 0 and the two (irrational) roots of the quadratic",
                ),
            ]
        lo = (-b - root) / (2 * a)
        hi = (-b + root) / (2 * a)
        values = tuple(sorted({Fraction(0), lo, hi}))
        return [uniform, ScalarRepClass("zero-pattern", values, _values_text(values))]
    raise ValueError(f"scalar classification covers A, B, C; got {algebra!r}")


def verify_scalar(assignment: Sequence[Fraction], algebra: str, params: Mapping | None = None, n: int = 3) -> bool:
    """Substitute one scalar per generator into the relation set; exact pass/fail.

    This is the direct evaluation route, independent of classify_scalar.
    """
    values = [Fraction(v) for v in assignment]
    if len(values) != n - 1:
        raise ValueError(f"need {n - 1} scalars for n={n}")
    rep = builtin_rep("scalar", values=values, n=n)
    rels = relations_for(algebra, n, params)
    return check_relations(rep, rels).passed


# -- correspondence checks -------------------------------------------------------


def _shift_rep(rep: Rep, shift: RatFunc, scale: RatFunc | None = None) -> Rep:
    """Map every generator matrix M to scale * (M + shift * I)."""
    one = FieldMatrix.identity(rep.dim, RatFunc.one(rep.params))
    mats = {}
    for i, m in rep.matrices.items():
        out = m + one.scale(shift)
        if scale is not None:
            out = out.scale(scale)
        mats[i] = out
    return Rep(rep.n, rep.dim, rep.params, mats)


def _extra_braid_coset_elements(n: int, b: RatFunc, symbols: tuple[str, ...]) -> list[tuple[str, NCPoly]]:
    """The two cubic elements cutting the braid algebra down to the shifted
    three-parameter algebra with (0, b, -b^2)."""
    out = []
    bb = b * b
    for i in range(1, n - 1):
        s = NCPoly.gen(n, i, symbols)
        t = NCPoly.gen(n, i + 1, symbols)
        out.append(
            (f"coset1({i})", t**2 * s - t * s**2 - (bb * (s - t) - b * (s**2 - t**2)))
        )
        out.append(
            (f"coset2({i})", s**2 * t - s * t**2 - (bb * (t - s) - b * (t**2 - s**2)))
        )
    return out


def _extra_B_remark_elements(n: int, symbols: tuple[str, ...]) -> list[tuple[str, NCPoly]]:
    """The extra relation of the B-to-A remark: ts^2 - t^2 s = s^2 - t^2 + t - s."""
    out = []
    for i in range(1, n - 1):
        s = NCPoly.gen(n, i, symbols)
        t = NCPoly.gen(n, i + 1, symbols)
        out.append((f"remark({i})", t * s**2 - t**2 * s - (s**2 - t**2 + t - s)))
    return out


def correspondence_check(kind: str, rep: Rep, q=None, b=None) -> VerifyReport:
    """Representation-level coset and shift correspondences.

    hecke_in_A: a rep satisfying the Hecke relations at q also satisfies the
    three-parameter relations at (0, 0, -q).
    braid_coset_to_A: a braid rep satisfying two extra cubic relations maps,
    via sigma - b, to a rep of the three-parameter algebra at (0, b, -b^2).
    B_to_A_shift: a B rep satisfying the extra remark relation maps, via
    b*(sigma - 1), to a rep at (0, b, -b^2) (b != 0).

    The input rep must pass its own source relations; failures there are
    reported with status "error" and the offending residuals.
    """
    if kind not in CORRESPONDENCE_KINDS:
        raise ValueError(f"unknown correspondence {kind!r}, expected one of {CORRESPONDENCE_KINDS}")
    report = VerifyReport(f"correspondence {kind}")

    if kind == "hecke_in_A":
        if q is None:
            q = "q"
        qv, qsyms = _param(q, "q")
        symbols = canonical_vars(set(rep.params) | qsyms)
        q_rf = _entry(qv, symbols)
        lifted = shifted = rep.lift(symbols)
        prechecks = [("precheck Hecke:", relations_for("Hecke", rep.n, {"q": q_rf}))]
        target, target_params = "A(0,0,-q)", {"a": 0, "b": 0, "c": -q_rf}
    else:
        if b is None:
            b = "b" if kind == "braid_coset_to_A" else Fraction(1)
        bv, bsyms = _param(b, "b")
        if isinstance(bv, Fraction) and bv == 0:
            raise ValueError(f"{kind} requires b != 0")
        symbols = canonical_vars(set(rep.params) | bsyms)
        b_rf = _entry(bv, symbols)
        lifted = rep.lift(symbols)
        if kind == "braid_coset_to_A":
            source = ("precheck braid:", relations_for("Braid", rep.n))
            extra = _extra_braid_coset_elements(rep.n, b_rf, symbols)
            shifted = _shift_rep(lifted, -b_rf)
        else:  # B_to_A_shift
            source = ("precheck B:", relations_for("B", rep.n))
            extra = _extra_B_remark_elements(rep.n, symbols)
            # sigma -> b*(sigma - 1), the inverse of sigma -> sigma/b + 1
            shifted = _shift_rep(lifted, -RatFunc.one(symbols), scale=b_rf)
        prechecks = [source, ("precheck ", RelationSet(kind, rep.n, symbols, {}, extra))]
        target, target_params = "A(0,b,-b^2)", {"a": 0, "b": b_rf, "c": -(b_rf * b_rf)}

    for prefix, rels in prechecks:
        for label, size in check_relations(lifted, rels).residuals:
            report.add_residual(prefix + label, size)
            if size:
                report.error(f"precondition failed: {label}")
    if report.status == "error":
        return report
    for label, size in check_relations(shifted, relations_for("A", rep.n, target_params)).residuals:
        report.add_residual(f"{target}:{label}", size)
    return report
