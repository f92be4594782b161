"""The :class:`CompiledModel`: the sparse standard form every solver takes.

Models are assembled straight into this form from array triplets by
:func:`repro.lp.fastbuild.compile_coo` (the SPM formulations through
:class:`~repro.core.fastform.FormulationCompiler`; the online batch MILP,
:class:`~repro.core.online.IncrementalBatchCompiler`, is its SPM over one
batch with rewritten right-hand sides and ``extra`` bounds) and solved
by :func:`repro.lp.solvers.solve_compiled_raw`, the in-process HiGHS
driver: in linprog's standard form for pure LPs, in milp's form when any
column is integral.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

__all__ = ["CompiledModel"]


@dataclass
class CompiledModel:
    """Sparse standard form: min c'x s.t. lb_row <= A x <= ub_row, lb <= x <= ub.

    ``sign`` is +1 for minimization models and -1 for maximization (the
    objective vector ``c`` is already negated for maximization so the solver
    always minimizes); reported objectives are multiplied back by ``sign``.

    ``split_cache`` holds what the HiGHS driver needs of a pure LP's
    structure (the equality/upper/lower row split, the column-wise matrix
    in linprog's row order and the column bounds), built lazily by
    :mod:`repro.lp.solvers` on first solve.  The split depends only on
    which row bounds are finite/equal — invariant under the row-*value*
    rewrites of :func:`repro.lp.fastbuild.with_row_upper` — so
    ``dataclasses.replace`` derivatives inherit it and the per-round
    re-solves skip building it (it is still validated against the
    current bound masks before reuse).  It holds HiGHS objects, which do
    not pickle, so a pickled model (a worker-pool payload) leaves it
    behind and rebuilds it on its first solve.
    """

    c: np.ndarray
    a_matrix: sparse.csr_matrix
    row_lower: np.ndarray
    row_upper: np.ndarray
    var_lower: np.ndarray
    var_upper: np.ndarray
    integrality: np.ndarray
    sign: float
    objective_constant: float = 0.0
    split_cache: object = field(default=None, repr=False, compare=False)

    def __getstate__(self) -> dict:
        return {**self.__dict__, "split_cache": None}
