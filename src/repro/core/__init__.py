"""The paper's contribution: SPM, its two variants, MAA, TAA and Metis.

* :class:`SPMInstance` — a concrete service-profit-maximization instance
  (topology + requests + pre-enumerated candidate paths ``P_i``);
* :class:`FormulationCompiler` — array-native LP/ILP builders for SPM,
  RL-SPM and BL-SPM;
* :class:`Schedule` — a path assignment with revenue/cost/profit accounting;
* :func:`solve_maa` — the Multistage Approximation Algorithm (RL-SPM);
* :func:`solve_taa` — the Tree-based Approximation Algorithm (BL-SPM);
* :class:`Metis` — the alternating framework combining both;
* :mod:`repro.core.hardness` — the SUBSET-SUM -> SPM reduction of Thm. 1.
"""

from repro.core.instance import SPMInstance
from repro.core.fastform import CompiledFormulation, FormulationCompiler
from repro.core.schedule import Schedule
from repro.core.maa import MAAResult, solve_maa
from repro.core.chernoff import chernoff_upper_bound, chernoff_lower_bound, invert_lower_bound, select_mu
from repro.core.taa import TAAResult, solve_taa
from repro.core.metis import (
    BandwidthLimiter,
    Metis,
    MetisOutcome,
    MinUtilizationLimiter,
    ProportionalLimiter,
)
from repro.core.hardness import spm_from_subset_sum, subset_from_solution
from repro.core.online import (
    BatchDecision,
    IncrementalBatchCompiler,
    OnlineOutcome,
    OnlineScheduler,
    solve_batch,
)
from repro.core.flexible import FlexibleResult, flexibility_gain, solve_flexible_spm
from repro.core.bounds import (
    BoundReport,
    ceiling_ratio_bound,
    maa_bound_report,
    maa_ratio_bound,
    taa_certificate,
)

__all__ = [
    "SPMInstance",
    "CompiledFormulation",
    "FormulationCompiler",
    "Schedule",
    "MAAResult",
    "solve_maa",
    "chernoff_upper_bound",
    "chernoff_lower_bound",
    "invert_lower_bound",
    "select_mu",
    "TAAResult",
    "solve_taa",
    "Metis",
    "MetisOutcome",
    "BandwidthLimiter",
    "MinUtilizationLimiter",
    "ProportionalLimiter",
    "spm_from_subset_sum",
    "subset_from_solution",
    "OnlineOutcome",
    "OnlineScheduler",
    "BatchDecision",
    "IncrementalBatchCompiler",
    "solve_batch",
    "FlexibleResult",
    "solve_flexible_spm",
    "flexibility_gain",
    "BoundReport",
    "ceiling_ratio_bound",
    "maa_ratio_bound",
    "maa_bound_report",
    "taa_certificate",
]
