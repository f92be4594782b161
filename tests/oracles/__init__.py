"""Frozen reference implementations the runtime is held to, bit for bit.

The runtime builds every model one way (array-native, through
:func:`repro.lp.fastbuild.compile_coo`) and runs batched numpy kernels in
its hot loops.  The readable code those paths replaced lives here, so the
equivalence suites can compare the two on every run:

* :mod:`tests.oracles.lp` — the symbolic expression layer (``Variable``,
  ``LinExpr``, ``Constraint``, ``Model``), its variable-keyed solve, the
  from-scratch simplex and branch-and-bound solvers, and
  (``scipy_backend``) the scipy ``linprog``/``milp`` wrapper path the
  HiGHS driver replaced;
* :mod:`tests.oracles.formulations` — RL-SPM, BL-SPM, SPM and the
  flexible-window ILP stated symbolically;
* :mod:`tests.oracles.online` — the incremental batch MILP and the batch
  decision on it;
* :mod:`tests.oracles.estimator` — the reference pessimistic estimator;
* :mod:`tests.oracles.metis` — MAA and TAA on the expression layer, and a
  swap into ``repro.core.metis``;
* :mod:`tests.oracles.local_search` — the scalar local-search loops;
* :mod:`tests.oracles.paths` — Yen's algorithm with one trimmed graph
  copy per spur search;
* :mod:`tests.oracles.reuse` — ``no_reuse()``, which solves every
  session relaxation afresh and runs Metis's local search without its
  memo.

Nothing under ``src/`` imports this package.
"""
