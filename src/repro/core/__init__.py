"""The paper's analysis engine: experiments, sweeps, figures, claims.

This package turns the substrates (traces, cache simulator, buffers) into
the paper's published artefacts:

- :mod:`repro.core.runner` — memoised spec -> stats execution over the
  persistent result store: ``resolve`` runs a whole grid as one pool
  batch (see :mod:`repro.exec`) and returns ``{spec: stats}``.
- :mod:`repro.core.sweep` — the standard cache-size / line-size sweeps.
- :mod:`repro.core.metrics` — derived-metric computations for each figure.
- :mod:`repro.core.figures` — one driver per table/figure, with a registry
  and a CLI (``python -m repro.core.figures fig13``).
- :mod:`repro.core.headline` — the numbered claims of Sections 3.3 and 6,
  extracted as paper-value vs. measured-value pairs.
"""

from repro.core.runner import clear_run_cache, resolve, run, run_suite, suite_keys
from repro.core.sweep import CACHE_SIZES_KB, LINE_SIZES_B, DEFAULT_CACHE_KB, DEFAULT_LINE_B
from repro.core.figures import FIGURES, get_figure
from repro.core.headline import headline_claims
from repro.core.performance import PerformanceEstimate, estimate_performance
from repro.core.report import generate_report
from repro.core.warmstart import run_warm

__all__ = [
    "run",
    "run_suite",
    "resolve",
    "suite_keys",
    "clear_run_cache",
    "CACHE_SIZES_KB",
    "LINE_SIZES_B",
    "DEFAULT_CACHE_KB",
    "DEFAULT_LINE_B",
    "FIGURES",
    "get_figure",
    "headline_claims",
    "PerformanceEstimate",
    "estimate_performance",
    "generate_report",
    "run_warm",
]
