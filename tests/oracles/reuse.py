"""The cold reference of certified reuse.

The runtime reuses work across structurally identical solves in two
places: every :class:`~repro.lp.warmstart.ResolveSession` answers
byte-identical repeats and certified-slack bound changes without
dispatching HiGHS, and :class:`~repro.core.metis.Metis` shares one
:class:`~repro.core.maa.ImproveMemo` across the local-search descents of a
solve.  Both are certified to change no decision.  :func:`no_reuse` turns
both off for the length of a ``with`` block, so the warm path can be held
to the cold one bit for bit and timed against it:

* every session solve becomes a plain
  :func:`repro.lp.solvers.solve_compiled_raw` call;
* ``repro.core.metis.improve_paths`` runs without its memo.

Test-only code: nothing under ``src/`` imports it.
"""

from __future__ import annotations

import contextlib

from repro.core import metis
from repro.lp import solvers
from repro.lp.warmstart import ResolveSession

__all__ = ["no_reuse"]


@contextlib.contextmanager
def no_reuse():
    """Solve every relaxation afresh and descend without a memo."""
    session_solve = ResolveSession.solve
    improve_paths = metis.improve_paths

    def cold_solve(self, compiled):
        return solvers.solve_compiled_raw(compiled)

    def memoless(instance, assignment, *, memo=None, **options):
        return improve_paths(instance, assignment, **options)

    ResolveSession.solve = cold_solve
    metis.improve_paths = memoless
    try:
        yield
    finally:
        ResolveSession.solve = session_solve
        metis.improve_paths = improve_paths
