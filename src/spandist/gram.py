"""Gram matrices of finite vector systems and determinant-based diagnostics.

The Gram matrix G of vectors x_1..x_n has entries G[i, j] = <x_i, x_j>; it
is Hermitian positive semidefinite, and its determinant is zero exactly when
the system is linearly dependent. All determinant work goes through
:func:`factor_gram`. It first runs LAPACK Cholesky on the equilibrated
matrix (G[i, j] divided by powers of two near sqrt(G[i, i] G[j, j])) and
keeps that factor only when a certificate on the size of its inverse proves
that the reference factorization, :func:`pivoted_cholesky`, would find full
rank; otherwise it runs the reference itself. The reference is a diagonally
pivoted Cholesky factorization, which keeps the semidefinite structure
explicit: the determinant is the product of the pivots, rank deficiency
shows up as a pivot collapsing relative to the largest one, and a
significantly negative pivot is proof that the input was not a Gram matrix.
Either way the rank decision is the reference's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    LinearDependenceError,
    NumericalInstabilityError,
)
from .space import DEFAULT_TOL, Field, ToleranceConfig, Vector

__all__ = [
    "GramMatrix",
    "GramAggregates",
    "NormalizedGram",
    "PivotedCholesky",
    "RankDiagnostics",
    "VectorSystem",
    "pivoted_cholesky",
    "gram_det_of_matrix",
    "gram_matrix",
    "gram_determinant",
    "rank_diagnostics",
    "GramHadamardVerdict",
    "GramSplitVerdict",
    "GramTriangleVerdict",
    "check_gram_hadamard",
    "check_gram_product_split",
    "check_gram_triangle",
    "gram_triangle_of_rows",
]


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Hermitian matrix of pairwise inner products (read-only ndarray)."""

    entries: np.ndarray

    @property
    def n(self) -> int:
        return int(self.entries.shape[0])

    def norms_sq(self) -> np.ndarray:
        """Diagonal as a real array: ||x_i||^2."""
        return np.ascontiguousarray(self.entries.diagonal().real)

    def abs_offdiag(self) -> np.ndarray:
        """|G[i, j]| with the diagonal zeroed out."""
        a = np.abs(self.entries)
        np.fill_diagonal(a, 0.0)
        return a


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class GramAggregates:
    """Every Gram-matrix aggregate the bounds and checks read, each computed
    once, on first access, and then kept.

    Scalars are numpy float64 values exactly as numpy's reductions return
    them, so a formula reads the same bits whether it takes an aggregate
    from here or reduces the Gram matrix itself; arrays are read-only.
    :meth:`power_sum` memoises the Hölder sums sum(array ** q) per exponent.
    Attributes cannot be assigned.
    """

    def __init__(self, gram: GramMatrix) -> None:
        self.__dict__["gram"] = gram
        self.__dict__["_powers"] = {}

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GramAggregates is read-only")

    @cached_property
    def norms_sq(self) -> np.ndarray:
        """||x_i||^2, the real diagonal."""
        return _frozen(self.gram.norms_sq())

    @cached_property
    def norm_sum(self) -> np.floating:
        return np.sum(self.norms_sq)

    @cached_property
    def norm_max(self) -> np.floating:
        return np.max(self.norms_sq)

    @cached_property
    def norm_product(self) -> np.floating:
        return np.prod(self.norms_sq)

    @cached_property
    def abs_gram(self) -> np.ndarray:
        """|G[i, j]|."""
        return _frozen(np.abs(self.gram.entries))

    @cached_property
    def abs_offdiag(self) -> np.ndarray:
        """|G[i, j]| with the diagonal zeroed."""
        return _frozen(self.gram.abs_offdiag())

    @cached_property
    def offdiag_max(self) -> np.floating:
        """max_{i != j} |G[i, j]|; 0 for a single vector."""
        return np.max(self.abs_offdiag, initial=0.0)

    @cached_property
    def offdiag_sum(self) -> np.floating:
        return np.sum(self.abs_offdiag)

    @cached_property
    def offdiag_sum_sq(self) -> np.floating:
        return np.sum(self.abs_offdiag**2)

    @cached_property
    def row_sums(self) -> np.ndarray:
        """r_i = sum_j |G[i, j]|, diagonal included."""
        return _frozen(np.sum(self.abs_gram, axis=1))

    @cached_property
    def row_sum_total(self) -> np.floating:
        return np.sum(self.row_sums)

    @cached_property
    def row_max(self) -> np.floating:
        return np.max(self.row_sums)

    @cached_property
    def abs_sum_sq(self) -> np.floating:
        """sum_{i, j} |G[i, j]|^2, the squared Frobenius norm."""
        return np.sum(self.abs_gram**2)

    @cached_property
    def identity_deviation(self) -> np.floating:
        """max_{i, j} |G - I|: zero exactly for an orthonormal system."""
        g = self.gram.entries
        return np.max(np.abs(g - np.eye(self.gram.n, dtype=g.dtype)))

    @cached_property
    def chain_prefixes(self) -> "ChainPrefixes":
        """Numerators and denominators of the Hadamard refinement chains for
        every prefix at once (see :class:`ChainPrefixes`)."""
        d = self.norms_sq
        abs_g = self.abs_gram
        numerators = np.sum(np.tril(abs_g**2, -1), axis=1)
        norm_max = np.maximum.accumulate(d)
        # max_{j<i} |G[i, j]| per row, then its running max over rows
        offdiag_max = np.maximum.accumulate(np.max(np.tril(abs_g, -1), axis=1))
        # column m of the row-wise cumsum holds sum_{j<=m} |G[i, j]|; the
        # block of size m + 1 takes its max over rows i <= m
        row_sums = np.max(np.triu(np.cumsum(abs_g, axis=1)), axis=0)
        return ChainPrefixes(
            numerators=_frozen(numerators),
            total_norm=_frozen(np.cumsum(d)),
            offdiag_frobenius=_frozen(norm_max + np.sqrt(2.0 * np.cumsum(numerators))),
            offdiag_max=_frozen(norm_max + np.arange(d.shape[0]) * offdiag_max),
            row_sums=_frozen(row_sums),
        )

    def power_sum(self, name: str, q: float) -> np.floating:
        """sum(array ** q) for the array aggregate ``name`` ("norms_sq",
        "abs_gram", "abs_offdiag" or "row_sums"), memoised per exponent."""
        key = (name, q)
        value = self._powers.get(key)
        if value is None:
            value = self._powers[key] = np.sum(getattr(self, name) ** q)
        return value


class ChainPrefixes(NamedTuple):
    """Prefix aggregates of the Hadamard refinement chains, read-only arrays
    of length n.

    ``numerators[k]`` is sum_{j<k} |G[k, j]|^2. Entry m of each other field
    aggregates the leading (m + 1) x (m + 1) Gram block B, the denominator
    for position k = m + 1 of the chain of the same name:

    * ``total_norm``: sum_i B[i, i]
    * ``offdiag_frobenius``: max_i B[i, i] + (sum_{i != j} |B[i, j]|^2)^(1/2)
    * ``offdiag_max``: max_i B[i, i] + m * max_{i != j} |B[i, j]|
    * ``row_sums``: max_i sum_j |B[i, j]|
    """

    numerators: np.ndarray
    total_norm: np.ndarray
    offdiag_frobenius: np.ndarray
    offdiag_max: np.ndarray
    row_sums: np.ndarray


class NormalizedGram(NamedTuple):
    """Gram matrix of the unit-normalised system and its determinant.

    ``entries`` is G[i, j] / (||x_i|| ||x_j||); ``norms`` holds the ||x_i||
    it was divided by. The unit diagonal keeps every factorisation pivot on
    one scale, which is what the determinant-ratio distance relies on.
    """

    norms: np.ndarray
    entries: np.ndarray
    det: float


@dataclass(frozen=True, eq=False)
class PivotedCholesky:
    """A Cholesky factorization P G P^T = L L^H with its rank decision.

    ``perm`` maps factorization position -> original index. ``pivots``
    holds the squared diagonal of L in factorization order; entries past
    ``rank`` are zero. From :func:`pivoted_cholesky` the pivots are
    nonincreasing; from the certified fast path of :func:`factor_gram` the
    order is the natural one (``perm`` is the identity) and the pivots come
    in no particular order.
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
    """
    src = np.asarray(matrix)
    a = np.array(src, dtype=np.complex128 if np.iscomplexobj(src) else np.float64)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    perm = np.arange(n)
    pivots = np.zeros(n)
    rank = n
    scale = float(np.max(np.abs(a.diagonal().real))) if n else 0.0
    for k in range(n):
        diag = a.diagonal().real
        j = k + int(np.argmax(diag[k:]))
        piv = float(diag[j])
        if k > 0:
            scale = pivots[0]
        if piv < -rank_rel_tol * scale:
            raise NumericalInstabilityError(
                f"pivot {piv:.3e} at step {k} is negative beyond tolerance; "
                "input is not positive semidefinite"
            )
        if piv <= rank_rel_tol * scale or piv <= 0.0:
            rank = k
            a[k:, k:] = 0.0  # drop the residual block, keep the valid trapezoid
            break
        if j != k:
            a[[k, j], :] = a[[j, k], :]
            a[:, [k, j]] = a[:, [j, k]]
            perm[[k, j]] = perm[[j, k]]
        pivots[k] = piv
        root = math.sqrt(piv)
        a[k, k] = root
        a[k + 1 :, k] /= root
        col = a[k + 1 :, k]
        a[k + 1 :, k + 1 :] -= np.outer(col, col.conj())
        a[k, k + 1 :] = 0.0
    lower = np.tril(a)
    lower.setflags(write=False)
    pivots.setflags(write=False)
    perm.setflags(write=False)
    return PivotedCholesky(lower=lower, perm=perm, pivots=pivots, rank=rank)


def factor_gram(matrix: np.ndarray, rank_rel_tol: float = DEFAULT_TOL.rank_rel_tol) -> PivotedCholesky:
    """Factor a Hermitian PSD matrix with the rank decision of
    :func:`pivoted_cholesky`, by LAPACK where that decision is certain.

    LAPACK Cholesky factors the equilibrated matrix S^-1 G S^-1 = L_e L_e^H,
    where S holds the powers of two nearest sqrt(G[i, i]): dividing by them
    is exact, so L = S L_e is the unpivoted factor of G itself, computed
    with entries near unit size. Every pivot of the pivoted factorization
    is at least lambda_min(G) >= 1 / tr(G^-1) = 1 / ||L^-1||_F^2, and its
    first pivot is max_i G[i, i]. So when ||L^-1||_F^2 * max_i G[i, i] is
    below 1 / (4 * rank_rel_tol) (the factor 4 absorbs rounding) the pivoted
    factorization would find full rank, and L is returned in natural order.
    Otherwise, and for a nonpositive or nonfinite diagonal or a LAPACK
    failure, this returns :func:`pivoted_cholesky` itself, so reduced rank
    and negative-pivot errors are decided by the reference.
    """
    a = np.asarray(matrix)
    if a.ndim == 2 and a.shape[0] == a.shape[1] and a.shape[0] > 0:
        d = a.diagonal().real
        d_max = float(np.max(d))
        if float(np.min(d)) > 0.0 and math.isfinite(d_max):
            scale = np.exp2(np.round(0.5 * np.log2(d)))
            try:
                lower_e = np.linalg.cholesky(a / scale[:, np.newaxis] / scale)
                inv_e = np.linalg.inv(lower_e)
            except np.linalg.LinAlgError:
                inv_e = None
            # L^-1 = L_e^-1 S^-1; weigh its columns by sqrt(d_max) to keep range
            if inv_e is not None and 4.0 * rank_rel_tol * float(
                np.sum(np.abs(inv_e * (math.sqrt(d_max) / scale)) ** 2)
            ) < 1.0:
                lower = _frozen(scale[:, np.newaxis] * lower_e)
                pivots = _frozen(np.abs(lower.diagonal()) ** 2)
                perm = _frozen(np.arange(a.shape[0]))
                return PivotedCholesky(lower=lower, perm=perm, pivots=pivots, rank=a.shape[0])
    return pivoted_cholesky(matrix, rank_rel_tol)


def gram_det_of_matrix(matrix: np.ndarray, rank_rel_tol: float = DEFAULT_TOL.rank_rel_tol) -> float:
    """Determinant of a Hermitian PSD matrix via :func:`factor_gram`.

    Returns exactly 0.0 when the pivot ratio certifies rank deficiency.
    """
    return factor_gram(matrix, rank_rel_tol).determinant()


@dataclass(frozen=True)
class RankDiagnostics:
    """Numerical-rank evidence extracted from the pivot sequence."""

    gram_det: float
    min_pivot: float
    max_pivot: float
    independent: bool


def _gram_of_rows(rows: np.ndarray) -> np.ndarray:
    """Read-only Gram matrix rows @ rows^H, conjugate symmetry exact in floats."""
    g = rows @ rows.conj().T
    g = (g + g.conj().T) / 2.0
    g.setflags(write=False)
    return g


class VectorSystem:
    """An ordered finite system of vectors sharing field and dimension.

    The Gram matrix and its pivoted factorization are computed eagerly at
    construction. Everything else derived from them is computed lazily, on
    first use, and then kept for the life of the system: the Gram aggregates
    (:attr:`aggregates`), the eigenvalue condition number
    (:meth:`gram_condition`), the unit-normalised Gram matrix with its
    determinant (:meth:`normalized_gram`) and the :class:`Vector` views of
    the rows (:attr:`vectors`). Nothing is ever mutated once computed, so
    instances are safe to share; two threads racing on a cold cache compute
    the same value twice. Prefer :meth:`from_rows` on hot paths; the
    :class:`Vector`-based constructor validates each vector individually.
    """

    __slots__ = (
        "_rows", "_field", "_tol", "_gram", "_chol", "_vectors",
        "_aggregates", "_condition", "_normalized",
    )

    def __init__(self, vectors: Sequence[Vector], tol: ToleranceConfig = DEFAULT_TOL) -> None:
        if len(vectors) == 0:
            raise ValueError("a vector system needs at least one vector")
        head = vectors[0]
        for v in vectors[1:]:
            if v.field is not head.field:
                raise FieldMismatchError("all system vectors must share one scalar field")
            if v.dim != head.dim:
                raise DimensionMismatchError(
                    f"system vectors must share one dimension ({head.dim} vs {v.dim})"
                )
        rows = np.stack([v.coords for v in vectors]).astype(head.field.dtype)
        self._init_from(rows, head.field, tol, tuple(vectors))

    @classmethod
    def from_rows(
        cls,
        rows: np.ndarray | Iterable[Iterable[float]],
        field: Field | None = None,
        tol: ToleranceConfig = DEFAULT_TOL,
    ) -> "VectorSystem":
        """Build a system from an (n, dim) coordinate array, one vector per row."""
        arr = np.asarray(rows)
        if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
            raise ValueError(f"expected a nonempty (n, dim) array, got shape {arr.shape}")
        if field is None:
            field = Field.COMPLEX if np.iscomplexobj(arr) and np.any(arr.imag != 0.0) else Field.REAL
        if field is Field.REAL and np.iscomplexobj(arr) and np.any(arr.imag != 0.0):
            raise FieldMismatchError("real-field system given complex coordinates")
        arr = (arr.real if field is Field.REAL and np.iscomplexobj(arr) else arr).astype(
            field.dtype, order="C")
        flat = arr.view(np.float64) if arr.dtype == np.complex128 else arr
        if not np.all(np.isfinite(flat)):
            raise ValueError("system coordinates must be finite")
        self = cls.__new__(cls)
        self._init_from(arr, field, tol, None)
        return self

    def _init_from(
        self,
        rows: np.ndarray,
        field: Field,
        tol: ToleranceConfig,
        vectors: tuple[Vector, ...] | None,
    ) -> None:
        rows = np.ascontiguousarray(rows)
        rows.setflags(write=False)
        self._rows = rows
        self._field = field
        self._tol = tol
        g = _gram_of_rows(rows)
        self._gram = GramMatrix(entries=g)
        self._chol = factor_gram(g, tol.rank_rel_tol)
        self._vectors = vectors
        self._aggregates: GramAggregates | None = None
        self._condition: float | None = None
        self._normalized: NormalizedGram | None = None

    # -- basic shape ---------------------------------------------------
    @property
    def n(self) -> int:
        return int(self._rows.shape[0])

    @property
    def dim(self) -> int:
        return int(self._rows.shape[1])

    @property
    def field(self) -> Field:
        return self._field

    @property
    def tol(self) -> ToleranceConfig:
        return self._tol

    @property
    def rows(self) -> np.ndarray:
        return self._rows

    @property
    def vectors(self) -> tuple[Vector, ...]:
        if self._vectors is None:
            self._vectors = tuple(Vector(row, self._field) for row in self._rows)
        return self._vectors

    # -- gram data -----------------------------------------------------
    @property
    def gram(self) -> GramMatrix:
        return self._gram

    @property
    def cholesky(self) -> PivotedCholesky:
        return self._chol

    @property
    def rank(self) -> int:
        return self._chol.rank

    @property
    def independent(self) -> bool:
        return self._chol.complete

    @property
    def aggregates(self) -> GramAggregates:
        """The Gram aggregates, built on first access."""
        if self._aggregates is None:
            self._aggregates = GramAggregates(self._gram)
        return self._aggregates

    def gram_condition(self) -> float:
        """Eigenvalue condition number of the Gram matrix (inf if singular)."""
        if self._condition is None:
            eigs = np.linalg.eigvalsh(self._gram.entries)
            lo, hi = float(eigs[0]), float(eigs[-1])
            self._condition = math.inf if lo <= 0.0 else hi / lo
        return self._condition

    def normalized_gram(self) -> NormalizedGram:
        """The unit-normalised Gram matrix and its determinant.

        Needs nonzero vectors; callers establish independence first.
        """
        if self._normalized is None:
            norms = _frozen(np.sqrt(self.aggregates.norms_sq))
            g_hat = _frozen(self._gram.entries / np.outer(norms, norms))
            det = gram_det_of_matrix(g_hat, self._tol.rank_rel_tol)
            self._normalized = NormalizedGram(norms=norms, entries=g_hat, det=det)
        return self._normalized

    # -- derived systems -----------------------------------------------
    def subsystem(self, indices: Sequence[int]) -> "VectorSystem":
        idx = list(indices)
        if not idx:
            raise ValueError("a subsystem needs at least one index")
        return VectorSystem.from_rows(self._rows[idx], self._field, self._tol)

    def augmented(self, x: Vector) -> "VectorSystem":
        """System with ``x`` appended after the existing vectors."""
        self._check_member(x)
        rows = np.vstack([self._rows, x.coords.astype(self._field.dtype)])
        return VectorSystem.from_rows(rows, self._field, self._tol)

    def _check_member(self, x: Vector) -> None:
        if x.field is not self._field:
            raise FieldMismatchError(
                f"vector field {x.field.value} does not match system field {self._field.value}"
            )
        if x.dim != self.dim:
            raise DimensionMismatchError(f"vector dimension {x.dim} != system dimension {self.dim}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VectorSystem(n={self.n}, dim={self.dim}, field={self._field.value})"


# -- module-level operation surface -------------------------------------


def gram_matrix(system: VectorSystem) -> GramMatrix:
    return system.gram


def gram_determinant(system: VectorSystem) -> float:
    """Gram determinant; exactly 0.0 for (numerically) dependent systems."""
    return system.cholesky.determinant()


def rank_diagnostics(system: VectorSystem, tol: ToleranceConfig | None = None) -> RankDiagnostics:
    """Pivot-based rank evidence from :func:`pivoted_cholesky`.

    The figures are those of the diagonally pivoted sequence the rank test
    reads, so the system is refactored with it: the certified factor of
    :func:`factor_gram` keeps natural order, and its pivots are other
    Schur complements (only their product, the determinant, is the same).
    """
    tol = tol or system.tol
    chol = pivoted_cholesky(system.gram.entries, tol.rank_rel_tol)
    pivots = chol.pivots[: chol.rank]
    max_pivot = float(np.max(pivots, initial=0.0))
    min_pivot = float(np.min(pivots)) if chol.complete and pivots.size else 0.0
    return RankDiagnostics(
        gram_det=chol.determinant(),
        min_pivot=min_pivot,
        max_pivot=max_pivot,
        independent=chol.complete,
    )


def require_independent(system: VectorSystem) -> None:
    if not system.independent:
        raise LinearDependenceError(
            f"system of {system.n} vectors has numerical rank {system.rank}"
        )


def _leq(lhs: float, rhs: float, rel: float) -> bool:
    """lhs <= rhs up to relative slack on the magnitude of both sides."""
    return lhs <= rhs + rel * (1.0 + abs(lhs) + abs(rhs))


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
    exactly for pairwise-orthogonal systems.
    """
    tol = tol or system.tol
    det = gram_determinant(system)
    product = float(system.aggregates.norm_product)
    rel = tol.compare_rel_tol
    return GramHadamardVerdict(
        gram_det=det,
        norm_product=product,
        lower_ok=det >= 0.0,
        upper_ok=_leq(det, product, rel),
        dependent_equality=not system.independent,
        orthogonal_equality=abs(product - det) <= rel * (1.0 + abs(product)),
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
    if not (1 <= k < system.n):
        raise ValueError(f"split position must satisfy 1 <= k < n={system.n}, got {k}")
    full = gram_determinant(system)
    g = system.gram.entries
    left = gram_det_of_matrix(g[:k, :k], tol.rank_rel_tol)
    right = gram_det_of_matrix(g[k:, k:], tol.rank_rel_tol)
    return GramSplitVerdict(
        gram_full=full,
        gram_left=left,
        gram_right=right,
        ok=_leq(full, left * right, tol.compare_rel_tol),
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
    tol: ToleranceConfig = DEFAULT_TOL,
) -> GramTriangleVerdict:
    """Verify det^(1/2)(x1+y1, rest) <= det^(1/2)(x1, rest) + det^(1/2)(y1, rest)."""
    if isinstance(rest, VectorSystem):
        rest_rows, field = rest.rows, rest.field
    else:
        rest_sys = VectorSystem(list(rest), tol)
        rest_rows, field = rest_sys.rows, rest_sys.field
    for lead in (x1, y1):
        if lead.field is not field:
            raise FieldMismatchError("leading vectors must share the system's scalar field")
        if lead.dim != rest_rows.shape[1]:
            raise DimensionMismatchError(
                f"leading vector dimension {lead.dim} != system dimension {rest_rows.shape[1]}"
            )
    return gram_triangle_of_rows(x1.coords, y1.coords, rest_rows, field, tol)


def gram_triangle_of_rows(
    x1: np.ndarray,
    y1: np.ndarray,
    rest_rows: np.ndarray,
    field: Field,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> GramTriangleVerdict:
    """:func:`check_gram_triangle` on validated coordinates.

    ``x1`` and ``y1`` are coordinate vectors and ``rest_rows`` an
    ``(m, dim)`` array, all finite and of the field's dtype; nothing is
    checked, and only the three augmented Gram matrices are factored.
    """

    def det_with(lead: np.ndarray) -> float:
        rows = np.vstack([lead[np.newaxis, :], rest_rows]).astype(field.dtype)
        return factor_gram(_gram_of_rows(rows), tol.rank_rel_tol).determinant()

    combined = math.sqrt(max(det_with(x1 + y1), 0.0))
    first = math.sqrt(max(det_with(x1), 0.0))
    second = math.sqrt(max(det_with(y1), 0.0))
    return GramTriangleVerdict(
        combined=combined,
        first=first,
        second=second,
        ok=_leq(combined, first + second, tol.compare_rel_tol),
    )
