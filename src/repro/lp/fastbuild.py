"""Array-native model compilation: COO triplets straight to sparse form.

Every runtime model is built here.  Callers hold the model in array form
(objective vector, constraint triplets, bound vectors) and
:func:`compile_coo` assembles the :class:`~repro.lp.model.CompiledModel`
sparse standard form in a handful of vectorized numpy operations — no
per-term Python, which matters on hot paths that rebuild a
structurally-similar model per step (the serving loop compiles one
incremental MILP per admission batch).  Duplicate ``(row, col)`` triplets
are summed by the sparse constructor, exactly like repeated ``+=``
accumulation into a symbolic expression; the test-suite's expression-layer
oracle (``tests/oracles/lp``) holds each builder to its symbolic
counterpart bit for bit.

Solve the result with :func:`repro.lp.solvers.solve_compiled_raw`, which
returns the raw column vector; the builder's column maps read it back.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy import sparse

from repro.exceptions import ModelError
from repro.lp.model import CompiledModel

__all__ = ["compile_coo", "with_objective", "with_row_upper"]


def with_row_upper(
    compiled: CompiledModel, row_upper: np.ndarray
) -> CompiledModel:
    """``compiled`` with new row upper bounds, sharing everything else.

    The sparse matrix, objective and column bounds are *not* copied — the
    returned model aliases them.  This is the cheap between-rounds update
    for formulations whose varying state enters solely through right-hand
    sides (the Metis BL-SPM re-solves under shrinking capacities).

    The parent's solver-side form (row split, column-wise matrix and
    finite-bound masks, see :class:`~repro.lp.model.CompiledModel`)
    rides along through ``dataclasses.replace``: the split depends only on
    which bounds are finite/equal, so the derived model's first solve
    skips the split and the matrix conversion entirely.  The
    solver still validates the masks against the new values before
    trusting the cache, so a rewrite that *does* change the partition
    (e.g. a bound pushed to infinity) falls back to a fresh split.
    """
    row_upper = np.asarray(row_upper, dtype=float)
    if row_upper.size != compiled.row_upper.size:
        raise ModelError(
            f"row_upper sized {row_upper.size}, "
            f"expected {compiled.row_upper.size}"
        )
    return replace(compiled, row_upper=row_upper)


def with_objective(
    compiled: CompiledModel, objective: np.ndarray
) -> CompiledModel:
    """``compiled`` with a new objective vector, sharing everything else.

    ``objective`` is given in the model's *original* sense; the stored
    ``c`` keeps the compiled model's existing maximization sign.  The
    sparse matrix and all bound arrays alias the input — this is the
    cheap between-rounds update for formulations whose varying state
    enters solely through objective coefficients (the Lagrangian price
    iteration of :mod:`repro.decomp` re-solves each shard's SPM under
    shifted link prices).  As with :func:`with_row_upper`, the parent's
    row-split cache is inherited — the split never depends on ``c``.
    """
    objective = np.asarray(objective, dtype=float)
    if objective.size != compiled.c.size:
        raise ModelError(
            f"objective sized {objective.size}, expected {compiled.c.size}"
        )
    return replace(compiled, c=compiled.sign * objective)


def compile_coo(
    *,
    objective: np.ndarray,
    maximize: bool,
    rows: np.ndarray,
    cols: np.ndarray,
    data: np.ndarray,
    num_rows: int,
    row_lower: np.ndarray,
    row_upper: np.ndarray,
    var_lower: np.ndarray,
    var_upper: np.ndarray,
    integrality: np.ndarray,
    objective_constant: float = 0.0,
    check: bool = True,
) -> CompiledModel:
    """Assemble a :class:`CompiledModel` from COO constraint triplets.

    ``objective`` is the coefficient vector in the model's *original* sense
    (its length defines the column count); the maximization sign flip is
    applied here.  ``rows``/``cols``/
    ``data`` are parallel triplet arrays for the constraint matrix;
    ``row_lower``/``row_upper`` give each row's range (use ``-inf``/``inf``
    for one-sided rows, equal values for equalities).

    ``check=False`` skips the cross-array consistency validation for
    callers that assemble the arrays programmatically and are themselves
    tested for shape discipline (the per-batch serving build); leave it on
    for hand-built models.
    """
    objective = np.asarray(objective, dtype=float)
    num_vars = objective.size
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    data = np.asarray(data, dtype=float)
    row_lower = np.asarray(row_lower, dtype=float)
    row_upper = np.asarray(row_upper, dtype=float)
    var_lower = np.asarray(var_lower, dtype=float)
    var_upper = np.asarray(var_upper, dtype=float)
    integrality = np.asarray(integrality, dtype=np.int8)
    if check:
        if num_vars == 0:
            raise ModelError("array-native model has no variables")
        if not (rows.size == cols.size == data.size):
            raise ModelError(
                f"triplet arrays disagree: {rows.size} rows, "
                f"{cols.size} cols, {data.size} data"
            )
        if row_lower.size != num_rows or row_upper.size != num_rows:
            raise ModelError(
                f"row bounds sized {row_lower.size}/{row_upper.size}, "
                f"expected {num_rows}"
            )
        if not (
            var_lower.size == var_upper.size == integrality.size == num_vars
        ):
            raise ModelError(
                f"column arrays sized {var_lower.size}/{var_upper.size}/"
                f"{integrality.size}, expected {num_vars}"
            )

    sign = -1.0 if maximize else 1.0
    a_matrix = _csr_from_triplets(
        rows, cols, data, num_rows, num_vars, check=check
    )
    return CompiledModel(
        c=sign * objective,
        a_matrix=a_matrix,
        row_lower=row_lower,
        row_upper=row_upper,
        var_lower=var_lower,
        var_upper=var_upper,
        integrality=integrality,
        sign=sign,
        objective_constant=float(objective_constant),
    )


_INT32_MAX = np.iinfo(np.int32).max


def _csr_from_triplets(
    rows: np.ndarray,
    cols: np.ndarray,
    data: np.ndarray,
    num_rows: int,
    num_vars: int,
    check: bool = True,
) -> sparse.csr_matrix:
    """Canonical CSR straight from triplets, skipping the COO round-trip.

    Produces what ``csr_matrix((data, (rows, cols)))`` would — row-major,
    column-sorted, duplicates summed — bitwise identical for duplicate-free
    triplets (the serving build is one) and identical up to float summation
    order otherwise.  The three CSR arrays are assembled here with a
    lexsort and a bincount instead of scipy's generic
    (and per-call much more expensive) COO conversion and validation
    machinery, then grafts them onto a blank ``csr_matrix``.  On the
    serving path this constructor runs once per admission batch, so its
    overhead is the floor of the batch build cost.
    """
    if check and rows.size:
        if int(rows.min()) < 0 or int(rows.max()) >= num_rows:
            raise ModelError("constraint row index out of range")
        if int(cols.min()) < 0 or int(cols.max()) >= num_vars:
            raise ModelError("constraint column index out of range")
    idx_dtype = (
        np.int32 if max(num_rows, num_vars, rows.size) < _INT32_MAX
        else np.int64
    )
    order = np.lexsort((cols, rows))
    sorted_rows = rows[order]
    indices = cols[order].astype(idx_dtype, copy=False)
    values = data[order]
    if sorted_rows.size:
        dup = (sorted_rows[1:] == sorted_rows[:-1]) & (
            indices[1:] == indices[:-1]
        )
        if dup.any():
            starts = np.flatnonzero(np.r_[True, ~dup])
            values = np.add.reduceat(values, starts)
            sorted_rows = sorted_rows[starts]
            indices = indices[starts]
    indptr = np.zeros(num_rows + 1, dtype=idx_dtype)
    np.cumsum(np.bincount(sorted_rows, minlength=num_rows), out=indptr[1:])
    # csr_matrix.__new__ + direct attribute assignment: the public
    # constructors re-validate (check_format, index-dtype selection, prune)
    # on every call, which at serving batch sizes costs more than the
    # actual assembly above.  The four attributes set here are the complete
    # state of a csr_matrix.
    a_matrix = sparse.csr_matrix.__new__(sparse.csr_matrix)
    a_matrix._shape = (int(num_rows), int(num_vars))
    a_matrix.data = values
    a_matrix.indices = indices
    a_matrix.indptr = indptr
    a_matrix.has_canonical_format = True
    return a_matrix
