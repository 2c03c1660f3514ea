"""Gram matrices of finite vector systems and determinant-based diagnostics.

The Gram matrix G of vectors x_1..x_n has entries G[i, j] = <x_i, x_j>; it
is Hermitian positive semidefinite, and its determinant is zero exactly when
the system is linearly dependent. Systems are held in stacks: a
:class:`SystemStack` keeps T systems of one shape as (T, n, dim) arrays and
computes their Gram matrices, factorizations and aggregates over the whole
stack at once, reducing only over each system's own axes; a
:class:`VectorSystem` is a stack of one, whose numbers are the same bits as
its entry in any larger stack, and the per-system functions read entry 0 of
that stack's factorization and aggregates. The triangle check reads them
too: det(x1, rest) is the system's own determinant, and its other two
matrices border the system's Gram block of the rest. All determinant work
goes through :func:`factor_stack`. It decides each matrix's rank once, as
the reference factorization :func:`pivoted_cholesky` decides it on the
power-of-two equilibrated matrix E, and gauges E's condition with the same
factor, so neither depends on how the rows are scaled. The reference is a
diagonally pivoted Cholesky factorization, which keeps the semidefinite
structure explicit: the determinant is the product of the pivots, rank
deficiency shows up as a pivot collapsing relative to the largest one, and a
significantly negative pivot is proof that the input was not a Gram matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from numpy.linalg import _linalg, _umath_linalg

from .errors import LinearDependenceError, NumericalInstabilityError
from .space import DEFAULT_TOL, Field, ToleranceConfig, Vector, check_member, checked_int, field_array, sq_norms
from .space import cached_property, check_members, leq_margin, near_margin

__all__ = [
    "ChainVariant",
    "GramMatrix",
    "AggregateStack",
    "FactorStack",
    "SystemStack",
    "PivotedCholesky",
    "VectorSystem",
    "pivoted_cholesky",
    "factor_stack",
    "gram_determinant",
    "GramHadamardVerdict",
    "GramSplitVerdict",
    "GramTriangleVerdict",
    "check_gram_hadamard",
    "check_gram_product_split",
    "check_gram_triangle",
]


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Hermitian matrix of pairwise inner products (read-only ndarray)."""

    entries: np.ndarray

    @property
    def n(self) -> int:
        return int(self.entries.shape[0])


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def gram_stack(rows: np.ndarray) -> np.ndarray:
    """Read-only Gram matrices rows @ rows^H of a (T, n, dim) stack of
    coordinate rows, conjugate symmetry exact in floats."""
    g = rows @ np.swapaxes(rows.conj(), -1, -2)
    return _frozen((g + np.swapaxes(g.conj(), -1, -2)) / 2.0)


class ChainVariant(Enum):
    """How the Hadamard refinement chains aggregate the leading (m + 1) x (m + 1)
    Gram block B into the denominator for position k = m + 1; the denominators
    of :attr:`AggregateStack.chain_prefixes` take one row per variant, in order:

    * ``TOTAL_NORM``: sum_i B[i, i]
    * ``OFFDIAG_FROBENIUS``: max_i B[i, i] + (sum_{i != j} |B[i, j]|^2)^(1/2)
    * ``OFFDIAG_MAX``: max_i B[i, i] + m * max_{i != j} |B[i, j]|
    * ``ROW_SUMS``: max_i sum_j |B[i, j]|
    """

    TOTAL_NORM = "total_norm"
    OFFDIAG_FROBENIUS = "offdiag_frobenius"
    OFFDIAG_MAX = "offdiag_max"
    ROW_SUMS = "row_sums"


_POWER_AXES = {"norms_sq": -1, "abs_gram": (-2, -1), "abs_offdiag": (-2, -1), "row_sums": -1}


class AggregateStack:
    """Every Gram-matrix aggregate the bounds and checks read, for a (T, n, n)
    stack of Gram matrices at once.

    Each field holds one value (or row) per system along the leading axis,
    is computed on first access and then kept. Every reduction runs over one
    system's own trailing axes, so a system's values are the same bits in a
    stack of one as in any larger stack. Every sum of the powers of an
    array aggregate, sum(array ** q), is :meth:`power_sum`, memoised per
    exponent: the Hölder sums, the plain sums (q = 1) and the squared
    Frobenius norms (q = 2) alike. Arrays are read-only.
    """

    def __init__(self, gram: np.ndarray) -> None:
        self.gram = gram
        self._powers: dict[tuple[str, float], np.ndarray] = {}

    @cached_property
    def norms_sq(self) -> np.ndarray:
        """||x_i||^2, the real diagonal."""
        return _frozen(np.ascontiguousarray(np.diagonal(self.gram, axis1=-2, axis2=-1).real))

    @cached_property
    def norm_sum(self) -> np.ndarray:
        return _frozen(np.add.reduce(self.norms_sq, axis=-1))

    @cached_property
    def norm_max(self) -> np.ndarray:
        return _frozen(np.maximum.reduce(self.norms_sq, axis=-1))

    @cached_property
    def norm_product(self) -> np.ndarray:
        return _frozen(np.multiply.reduce(self.norms_sq, axis=-1))

    @cached_property
    def abs_gram(self) -> np.ndarray:
        """|G[i, j]|."""
        return _frozen(np.abs(self.gram))

    @cached_property
    def abs_offdiag(self) -> np.ndarray:
        """|G[i, j]| with the diagonal zeroed."""
        return _frozen(np.where(np.eye(self.gram.shape[-1], dtype=bool), 0.0, self.abs_gram))

    @cached_property
    def offdiag_max(self) -> np.ndarray:
        """max_{i != j} |G[i, j]|; 0 for a single vector."""
        return _frozen(np.maximum.reduce(self.abs_offdiag, axis=(-2, -1), initial=0.0))

    @cached_property
    def row_sums(self) -> np.ndarray:
        """r_i = sum_j |G[i, j]|, diagonal included."""
        return _frozen(np.add.reduce(self.abs_gram, axis=-1))

    @cached_property
    def row_max(self) -> np.ndarray:
        return _frozen(np.maximum.reduce(self.row_sums, axis=-1))

    @cached_property
    def offdiag_frobenius(self) -> np.ndarray:
        """(sum_{i != j} |G[i, j]|^2)^(1/2)."""
        return _frozen(np.sqrt(self.power_sum("abs_offdiag", 2)))

    @cached_property
    def frobenius(self) -> np.ndarray:
        """(sum_{i, j} |G[i, j]|^2)^(1/2), the Frobenius norm."""
        return _frozen(np.sqrt(self.power_sum("abs_gram", 2)))

    @cached_property
    def diag_offdiag_frobenius(self) -> np.ndarray:
        """max_i ||x_i||^2 + (sum_{i != j} |G[i, j]|^2)^(1/2)."""
        return _frozen(self.norm_max + self.offdiag_frobenius)

    @cached_property
    def diag_offdiag_max(self) -> np.ndarray:
        """max_i ||x_i||^2 + (n - 1) max_{i != j} |G[i, j]|."""
        return _frozen(self.norm_max + (self.gram.shape[-1] - 1) * self.offdiag_max)

    @cached_property
    def identity_deviation(self) -> np.ndarray:
        """max_{i, j} |G - I|: zero exactly for an orthonormal system."""
        g = self.gram
        return _frozen(np.maximum.reduce(np.abs(g - np.eye(g.shape[-1], dtype=g.dtype)), axis=(-2, -1)))

    @cached_property
    def chain_prefixes(self) -> tuple[np.ndarray, np.ndarray]:
        """Numerators and denominators of the Hadamard refinement chains for
        every prefix at once, read-only: the (T, n) numerators, column k
        holding sum_{j<k} |G[k, j]|^2, and the (4, T, n) denominators, one row
        per :class:`ChainVariant` in its member order, column m holding that
        variant's aggregate of the leading (m + 1) x (m + 1) Gram block."""
        d = self.norms_sq
        abs_g = self.abs_gram
        below = np.tri(*abs_g.shape[-2:], -1, dtype=bool)  # np.tril(., -1) keeps it, np.triu(.) zeroes it
        numerators = np.add.reduce(np.where(below, abs_g**2, 0.0), axis=-1)
        norm_max = np.maximum.accumulate(d, axis=-1)
        # max_{j<i} |G[i, j]| per row, then its running max over rows
        offdiag_max = np.maximum.accumulate(np.maximum.reduce(np.where(below, abs_g, 0.0), axis=-1), axis=-1)
        # column m of the row-wise cumsum holds sum_{j<=m} |G[i, j]|; the
        # block of size m + 1 takes its max over rows i <= m
        row_sums = np.maximum.reduce(np.where(below, 0.0, np.cumsum(abs_g, axis=-1)), axis=-2)
        return _frozen(numerators), _frozen(np.array([
            np.cumsum(d, axis=-1),
            norm_max + np.sqrt(2.0 * np.cumsum(numerators, axis=-1)),
            norm_max + np.arange(d.shape[-1]) * offdiag_max,
            row_sums,
        ]))

    def power_sum(self, name: str, q: float) -> np.ndarray:
        """sum(array ** q) per system for the array aggregate ``name``
        ("norms_sq", "abs_gram", "abs_offdiag" or "row_sums"; any other name
        raises ValueError), memoised per exponent."""
        key = (name, q)
        value = self._powers.get(key)
        if value is None:
            if name not in _POWER_AXES:
                raise ValueError(f"power_sum reads one of {', '.join(_POWER_AXES)}, got {name!r}")
            value = self._powers[key] = _frozen(np.add.reduce(getattr(self, name) ** q, axis=_POWER_AXES[name]))
        return value


@dataclass(frozen=True, eq=False)
class PivotedCholesky:
    """A Cholesky factorization P G P^T = L L^H with its rank decision.

    ``perm`` maps factorization position -> original index. ``pivots``
    holds the squared diagonal of L in factorization order; entries past
    ``rank`` are zero and nonincreasing. :func:`factor_stack` runs it on
    the equilibrated matrix E, so there only E's pivots are nonincreasing
    (G's are them times S[perm]^2).
    """

    lower: np.ndarray
    perm: np.ndarray
    pivots: np.ndarray
    rank: int

    @property
    def complete(self) -> bool:
        return self.rank == self.pivots.shape[0]

    def determinant(self) -> float:
        if not self.complete:
            return 0.0
        return float(np.prod(self.pivots)) if self.pivots.size else 1.0


def pivoted_cholesky(matrix: np.ndarray, rank_rel_tol: float = DEFAULT_TOL.rank_rel_tol) -> PivotedCholesky:
    """Factor a Hermitian PSD matrix with diagonal pivoting.

    At every step the largest remaining diagonal entry is chosen as pivot.
    The factorization stops early (reporting reduced rank) once the next
    pivot falls to ``rank_rel_tol`` times the largest pivot; a pivot below
    ``-rank_rel_tol`` times that scale raises
    :class:`NumericalInstabilityError`, since no Gram matrix can produce it.
    Every entry is checked by :func:`~spandist.space.field_array`, so a
    non-finite one raises ValueError; a complex array stays complex.
    """
    src = np.asarray(matrix)
    a = np.array(field_array(src, Field.COMPLEX if src.dtype.kind == "c" else None, "matrix entries"))
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    lower, perm, pivots, rank = _pivoted(a[np.newaxis], rank_rel_tol)
    return PivotedCholesky(lower=_frozen(lower[0]), perm=_frozen(perm[0]), pivots=_frozen(pivots[0]), rank=int(rank[0]))


def _pivoted(a: np.ndarray, rank_rel_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`pivoted_cholesky` of each matrix of a (K, m, m) float64 or
    complex128 stack, which it overwrites: lower, perm, pivots and rank.
    The matrices are factored one after another, so a stack raises for its
    first non-PSD matrix."""
    count, m = a.shape[0], a.shape[-1]
    perm, pivots, rank = np.arange(m)[np.newaxis].repeat(count, axis=0), np.zeros((count, m)), np.full(count, m)
    rel = float(rank_rel_tol)  # float64 tolerances for a numpy float32 one too
    for i, (g, p, done) in enumerate(zip(a, perm, pivots)):
        d = g.diagonal().real
        for k in range(m):
            j = k + int(d[k:].argmax())
            piv = float(d[j])
            if k < 2:  # the scale is the largest diagonal entry at step 0, the first pivot after it
                tol = rel * (float(np.abs(d).max()) if k == 0 else float(done[0]))
            if piv <= tol or piv <= 0.0:  # the second decides where tol is NaN
                if piv < -tol:
                    raise NumericalInstabilityError(
                        f"pivot {piv:.3e} at step {k} is negative beyond tolerance; "
                        "input is not positive semidefinite"
                    )
                g[k:, k:] = 0.0  # drop the residual block, keep the valid trapezoid
                rank[i] = k
                break
            if j != k:
                g[k], g[j], p[k], p[j] = g[j].copy(), g[k].copy(), p[j], p[k]
                g[:, k], g[:, j] = g[:, j].copy(), g[:, k].copy()
            done[k] = piv
            g[k, k] = root = math.sqrt(piv)
            col, trailing = g[k + 1 :, k], g[k + 1 :, k + 1 :]
            col /= root
            np.subtract(trailing, col[:, np.newaxis] * col[np.newaxis, :].conj(), out=trailing)
    return np.tril(a), perm, pivots, rank


class FactorStack(NamedTuple):
    """The factorizations of a (T, m, m) stack, as (T, ...) arrays:
    ``perm``, ``pivots`` (read-only) and ``rank`` stack the fields of
    :class:`PivotedCholesky`; ``complete`` is rank == m and ``det`` the
    determinant (exactly 0.0 where the rank test failed). ``inverse``
    (read-only) holds L^-1 for P G P^T = L L^H, all NaN where the rank test
    failed: the inverse of the equilibrated factor with its columns divided
    by S[perm], so scaling a row by 2^k divides its column by exactly 2^k.
    ``condition`` (read-only) is kappa_E = max_i E[i, i] * ||L_e^-1||_F^2,
    the condition of the equilibrated matrix E up to a factor m either way,
    inf where the rank test failed; scaling a row by 2^k leaves it as it is."""

    perm: np.ndarray
    pivots: np.ndarray
    rank: np.ndarray
    complete: np.ndarray
    det: np.ndarray
    inverse: np.ndarray
    condition: np.ndarray


def _lapack(gufunc, stack: np.ndarray) -> np.ndarray:
    """``gufunc`` (``_umath_linalg.cholesky_lo`` or ``inv``, the gufuncs that
    ``np.linalg.cholesky`` and ``inv`` call) over a (T, m, m) stack. LAPACK
    takes the matrices one by one; where np.linalg raises for the whole
    stack, the gufunc fills each failed matrix with NaN, leaves the others
    np.linalg's bits and only raises the invalid flag, which is ignored
    here: a caller reads a failure from the NaN fill."""
    with np.errstate(all="ignore"):
        return gufunc(stack)


def _qr(stack: np.ndarray, reduced: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """``numpy.linalg.qr`` of a (T, m, k) stack by the same two gufuncs, under
    its error rule but without its copies and wrappers: the factored copy,
    which holds R on and above its diagonal, and the reduced Q (or None)."""
    a = np.array(stack)  # qr_r_raw factors its operand in place
    with np.errstate(call=_linalg._raise_linalgerror_qr, invalid="call", over="ignore", divide="ignore", under="ignore"):
        tau = _umath_linalg.qr_r_raw(a)
        return a, _umath_linalg.qr_reduced(a, tau) if reduced else None


def factor_stack(mats: np.ndarray, rank_rel_tol: float = DEFAULT_TOL.rank_rel_tol) -> FactorStack:
    """Factor a (T, m, m) stack of Hermitian PSD matrices, deciding each
    one's rank once, on its equilibrated matrix.

    Each G is equilibrated as E = S^-1 G S^-1 (van der Sluis), S holding the
    powers of two nearest sqrt(G[i, i]), or 1 where G[i, i] is not positive
    and finite: this is exact, and scaling a row by 2^k leaves E as it is.
    The rank decision is :func:`pivoted_cholesky`'s on E (Higham's stopping
    rule on a unit-sized diagonal); the factor of G is L = S[perm] L_e,
    exact too. LAPACK Cholesky factors E = L_e L_e^H first. Every pivot of
    the pivoted factorization of E is at least lambda_min(E) >= 1 / tr(E^-1)
    = 1 / ||L_e^-1||_F^2, and its first is max_i E[i, i]. So when
    ||L_e^-1||_F^2 * max_i E[i, i] is below 1 / (4 * rank_rel_tol) (the 4
    absorbs rounding) the decision is full rank, and L is kept in natural
    order. Otherwise, and for a nonpositive or nonfinite diagonal or a
    LAPACK failure, :func:`pivoted_cholesky`'s loop factors each such E
    alone and decides reduced rank and negative-pivot errors. The
    certificate's L_e^-1 is kept as ``inverse`` and its product as
    ``condition`` (:class:`FactorStack`); a fallback matrix of full rank
    inverts its pivoted L_e and takes the same product of that inverse.
    """
    a = np.asarray(mats)
    if a.dtype != np.float64 and a.dtype != np.complex128:
        a = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64)
    count, m = a.shape[0], a.shape[-1]
    d = a.diagonal(0, -2, -1).real
    good = (d > 0.0) & np.isfinite(d)
    # 2^(e // 2) for d = f * 2^e, f in [1/2, 1): E[i, i] lies in [1/2, 2)
    scale = np.ldexp(1.0, np.where(good, np.frexp(d)[1] // 2, 0))
    e = a / scale[:, :, np.newaxis] / scale[:, np.newaxis, :]
    fast = np.logical_and.reduce(good, axis=-1)
    # the other matrices are replaced by the identity here, and not kept
    src = e if fast.all() else np.where(fast[:, np.newaxis, np.newaxis], e, np.eye(m))
    # a matrix LAPACK could not factor or invert comes back NaN, and so
    # does its condition, which then fails the test below
    lower_e = _lapack(_umath_linalg.cholesky_lo, src)
    inv_e = _lapack(_umath_linalg.inv, lower_e)
    condition = _condition(inv_e, src)
    fast &= 4.0 * rank_rel_tol * condition < 1.0
    inverse = inv_e / scale[:, np.newaxis, :]
    pivots = np.abs(scale * lower_e.diagonal(0, -2, -1)) ** 2
    perm, rank, complete = _full_rank(count, m)
    if not fast.all():
        slow = np.flatnonzero(~fast)
        lower, slow_perm, slow_pivots, slow_rank = _pivoted(e[slow], rank_rel_tol)
        s = scale[slow[:, np.newaxis], slow_perm]
        perm, rank = perm.copy(), rank.copy()
        perm[slow], pivots[slow], rank[slow] = slow_perm, s * s * slow_pivots, slow_rank
        inverse[slow], condition[slow] = np.nan, np.inf
        full = slow_rank == m
        if full.any():
            inv = _lapack(_umath_linalg.inv, lower[full])
            inverse[slow[full]], condition[slow[full]] = inv / s[full][:, np.newaxis, :], _condition(inv, e[slow[full]])
        perm, complete = _frozen(perm), rank == m
    det = np.multiply.reduce(pivots, axis=-1)
    if not complete.all():
        det = np.where(complete, det, 0.0)
    return FactorStack(perm, _frozen(pivots), rank, complete, det, _frozen(inverse), _frozen(condition))


def _condition(inverse: np.ndarray, e: np.ndarray) -> np.ndarray:
    """max_i E[i, i] * ||L_e^-1||_F^2 for (T, m, m) stacks of L_e^-1 and E."""
    inv_sq = np.add.reduce(np.abs(inverse.reshape(inverse.shape[0], -1)) ** 2, axis=-1)
    return inv_sq * np.maximum.reduce(e.diagonal(0, -2, -1).real, axis=-1)


@lru_cache(maxsize=64)
def _full_rank(count: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only perm, rank and complete of ``count`` full-rank factors in natural order."""
    perm = np.tile(np.arange(m), (count, 1))
    return _frozen(perm), _frozen(np.full(count, m)), _frozen(np.ones(count, dtype=bool))


class SystemStack:
    """T systems of n vectors in dim coordinates, held as stacked arrays.

    ``rows`` is the (T, n, dim) coordinate stack. The Gram matrices and
    their factorizations (:func:`factor_stack`) are computed eagerly: the
    factorization is each system's one rank decision and its one condition
    number (``factor.condition``, the scale-free kappa_E), which everything
    that needs to know whether a system is independent or well conditioned
    reads. The aggregates (an :class:`AggregateStack`) are computed on first
    use and then kept. Every computation reduces over one system's own axes
    only, so an entry's numbers are the same bits in a stack of one as in
    any larger stack. A stack keeps no reference to the
    :class:`VectorSystem` built over it.
    """

    def __init__(self, rows: np.ndarray, field: Field, tol: ToleranceConfig = DEFAULT_TOL) -> None:
        self.rows = _frozen(np.ascontiguousarray(rows, dtype=field.dtype))
        self.field = field
        self.tol = tol
        self.gram = gram_stack(self.rows)
        self.factor = factor_stack(self.gram, tol.rank_rel_tol)
        self.aggregates = AggregateStack(self.gram)

    @property
    def n(self) -> int:
        return int(self.rows.shape[1])

    @property
    def dim(self) -> int:
        return int(self.rows.shape[2])


class VectorSystem:
    """An ordered finite system of vectors sharing field and dimension.

    A system is a :class:`SystemStack` of one (:meth:`as_stack`), so the
    per-system functions run the stacked kernels on it and read its numbers
    from that stack: the factorization with its rank decision and kappa_E
    (``as_stack().factor``) and the Gram aggregates
    (``as_stack().aggregates``); scaling a row by a power of two leaves the
    rank and kappa_E as they are. :meth:`gram_condition` reports the
    eigenvalue condition number of G itself, which does depend on the
    scaling, and computes it only when asked. They are the same
    bits as the system's entry of any larger stack; a vector against it is a
    :class:`~spandist.distance.PointStack` of one. The Gram matrix and its
    factorization are computed at construction; everything else on first
    use, and then kept for the life of the system, as are the
    :class:`Vector` views of the rows (:attr:`vectors`). A system also
    keeps the point stack of the last vector asked about
    (:meth:`~spandist.distance.PointStack.of`), so the functions that read
    one (system, x) pair share its numbers; asking about another vector, or
    at another tolerance, replaces it. Nothing is ever mutated once
    computed, so instances are safe to share; two threads racing on a cold
    cache, or asking about different vectors, compute the same value
    twice. Prefer :meth:`from_rows` on hot paths; the :class:`Vector`-based
    constructor validates each vector individually.
    """

    __slots__ = ("_stack", "_gram", "_vectors", "_point")

    def __init__(self, vectors: Sequence[Vector], tol: ToleranceConfig = DEFAULT_TOL) -> None:
        if len(vectors) == 0:
            raise ValueError("a vector system needs at least one vector")
        head = check_members(vectors)
        rows = np.stack([v.coords for v in vectors])
        self._bind(SystemStack(rows[np.newaxis], head.field, tol))
        self._vectors = tuple(vectors)

    @classmethod
    def from_rows(
        cls,
        rows: np.ndarray | Iterable[Iterable[float]],
        field: Field | None = None,
        tol: ToleranceConfig = DEFAULT_TOL,
    ) -> "VectorSystem":
        """Build a system from an (n, dim) coordinate array, one vector per
        row, checked by :func:`~spandist.space.field_array` (``field=None``
        infers the field)."""
        arr = field_array(rows, field, "system coordinates")
        if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
            raise ValueError(f"expected a nonempty (n, dim) array, got shape {arr.shape}")
        return cls._of(SystemStack(arr[np.newaxis], Field.of(arr), tol))

    @classmethod
    def _of(cls, stack: SystemStack) -> "VectorSystem":
        """The system of ``stack``, a stack of one."""
        system = cls.__new__(cls)
        system._bind(stack)
        return system

    def _bind(self, stack: SystemStack) -> None:
        self._stack = stack
        self._gram = GramMatrix(entries=stack.gram[0])
        self._vectors: tuple[Vector, ...] | None = None
        self._point: tuple | None = None  # (x, tol, PointStack) of the last PointStack.of

    # -- basic shape ---------------------------------------------------
    @property
    def n(self) -> int:
        return self._stack.n

    @property
    def dim(self) -> int:
        return self._stack.dim

    @property
    def field(self) -> Field:
        return self._stack.field

    @property
    def tol(self) -> ToleranceConfig:
        return self._stack.tol

    @property
    def rows(self) -> np.ndarray:
        return self._stack.rows[0]

    @property
    def vectors(self) -> tuple[Vector, ...]:
        if self._vectors is None:
            self._vectors = tuple(Vector(row, self.field) for row in self.rows)
        return self._vectors

    def as_stack(self) -> SystemStack:
        """This system as the stack of one it is. The per-system functions
        run their stacked kernels on it."""
        return self._stack

    # -- gram data -----------------------------------------------------
    @property
    def gram(self) -> GramMatrix:
        return self._gram

    @property
    def rank(self) -> int:
        return int(self._stack.factor.rank[0])

    @property
    def independent(self) -> bool:
        return bool(self._stack.factor.complete[0])

    def gram_condition(self) -> float:
        """Eigenvalue condition number of the Gram matrix (inf if singular)."""
        eigs = np.linalg.eigvalsh(self._gram.entries)
        lo, hi = float(eigs[0]), float(eigs[-1])
        return math.inf if lo <= 0.0 else hi / lo

    # -- derived systems -----------------------------------------------
    def subsystem(self, indices: Sequence[int]) -> "VectorSystem":
        """The vectors at ``indices`` (at least one, each 0 <= i < n) as a system."""
        picked = [checked_int("subsystem index", i) for i in indices]
        for i in picked:
            if not 0 <= i < self.n:
                raise ValueError(f"subsystem index must satisfy 0 <= i < n={self.n}, got {i}")
        return VectorSystem.from_rows(self.rows[picked], self.field, self.tol)

    def augmented(self, x: Vector) -> "VectorSystem":
        """System with ``x`` appended after the existing vectors."""
        self._check_member(x)
        rows = np.vstack([self.rows, x.coords])
        return VectorSystem.from_rows(rows, self.field, self.tol)

    def _check_member(self, x: Vector) -> None:
        check_member(x, self.field, self.dim)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VectorSystem(n={self.n}, dim={self.dim}, field={self.field.value})"


# -- module-level operation surface -------------------------------------


def gram_determinant(system: VectorSystem) -> float:
    """Gram determinant; exactly 0.0 for a (numerically) dependent system, but
    0.0 also when an independent one's underflows (256 vectors with Gram
    eigenvalues near 0.01), which ``system.independent`` tells apart."""
    return float(system._stack.factor.det[0])


def require_independent(system: VectorSystem) -> None:
    if not system.independent:
        raise LinearDependenceError(
            f"system of {system.n} vectors has numerical rank {system.rank}"
        )


@dataclass(frozen=True)
class GramHadamardVerdict:
    """Two-sided determinant bound 0 <= det <= product of squared norms."""

    gram_det: float
    norm_product: float
    lower_ok: bool
    upper_ok: bool
    dependent_equality: bool
    orthogonal_equality: bool

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.upper_ok


def check_gram_hadamard(system: VectorSystem, tol: ToleranceConfig | None = None) -> GramHadamardVerdict:
    """Verify 0 <= Gram det <= prod ||x_i||^2 and classify the equality cases.

    Equality on the left happens exactly for dependent systems; on the right
    exactly for pairwise-orthogonal systems. An overflowing norm product
    (inf) is never an equality case, and it fails ``upper_ok``.
    """
    tol = tol or system.tol
    det = gram_determinant(system)
    product = float(system.as_stack().aggregates.norm_product[0])
    return GramHadamardVerdict(
        gram_det=det,
        norm_product=product,
        lower_ok=det >= 0.0,
        upper_ok=leq_margin(det, product, tol.compare_rel_tol) >= 0.0,
        dependent_equality=not system.independent,
        orthogonal_equality=near_margin(det, product, tol.compare_rel_tol) >= 0.0,
    )


@dataclass(frozen=True)
class GramSplitVerdict:
    """det(full) <= det(first block) * det(second block)."""

    gram_full: float
    gram_left: float
    gram_right: float
    ok: bool


def check_gram_product_split(
    system: VectorSystem, k: int, tol: ToleranceConfig | None = None
) -> GramSplitVerdict:
    """Verify the determinant product split at position ``k`` (1 <= k < n)."""
    tol = tol or system.tol
    k = checked_int("split position", k)
    if not (1 <= k < system.n):
        raise ValueError(f"split position must satisfy 1 <= k < n={system.n}, got {k}")
    full = gram_determinant(system)
    left, right = (float(d[0]) for d in split_determinants(system.gram.entries[np.newaxis], k, tol.rank_rel_tol))
    return GramSplitVerdict(
        gram_full=full,
        gram_left=left,
        gram_right=right,
        ok=leq_margin(full, left * right, tol.compare_rel_tol) >= 0.0,
    )


@dataclass(frozen=True)
class GramTriangleVerdict:
    """sqrt-determinant triangle inequality in the leading argument."""

    combined: float
    first: float
    second: float
    ok: bool


def check_gram_triangle(
    x1: Vector,
    y1: Vector,
    rest: Sequence[Vector] | VectorSystem,
    tol: ToleranceConfig | None = None,
) -> GramTriangleVerdict:
    """Verify det^(1/2)(x1+y1, rest) <= det^(1/2)(x1, rest) + det^(1/2)(y1, rest)
    by :func:`triangle_roots` on the system (x1, rest).

    ``tol`` defaults to a :class:`VectorSystem` rest's own tolerance, and to
    :data:`~spandist.space.DEFAULT_TOL` for a sequence of vectors."""
    if isinstance(rest, VectorSystem):
        tol, rest = tol or rest.tol, rest.vectors
    system = VectorSystem([x1, *rest], tol or DEFAULT_TOL)
    system._check_member(y1)
    combined, first, second = (
        float(v[0]) for v in triangle_roots(system.as_stack(), y1.coords[np.newaxis], system.tol)
    )
    return GramTriangleVerdict(
        combined=combined,
        first=first,
        second=second,
        ok=leq_margin(combined, first + second, system.tol.compare_rel_tol) >= 0.0,
    )


def split_determinants(gram: np.ndarray, k: int, rank_rel_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Determinants of the leading k x k and trailing blocks of each Gram
    matrix of a (T, n, n) stack."""
    return (
        factor_stack(gram[:, :k, :k], rank_rel_tol).det,
        factor_stack(gram[:, k:, k:], rank_rel_tol).det,
    )


def triangle_roots(
    systems: SystemStack, y1: np.ndarray, tol: ToleranceConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """det^(1/2) of the Gram matrices of (x1 + y1, rest), (x1, rest) and
    (y1, rest) for the systems (x1, rest) of a stack and (T, dim) rows y1,
    all in the systems' dtype. The second is the systems' own determinant,
    at their own tolerance. The other two border the systems' Gram block
    of the rest with each leading row's inner products, and the two stacks
    are factored as one (2T, n, n) :func:`factor_stack` call at ``tol``."""
    rows, (count, n) = systems.rows, systems.rows.shape[:2]
    leads = np.stack([rows[:, 0] + y1, y1], axis=1)
    cross = np.transpose(rows[:, 1:].conj() @ np.swapaxes(leads, -1, -2), (2, 0, 1))  # [k, :, j]: <lead_k, rest_j>
    gram = np.empty((2, count, n, n), rows.dtype)
    gram[:, :, 1:, 1:] = systems.gram[:, 1:, 1:]
    gram[:, :, 0, 0], gram[:, :, 0, 1:], gram[:, :, 1:, 0] = sq_norms(leads).T, cross, cross.conj()
    det = factor_stack(gram.reshape(-1, n, n), tol.rank_rel_tol).det.reshape(2, count)
    return tuple(np.sqrt(np.maximum([det[0], systems.factor.det, det[1]], 0.0)))
