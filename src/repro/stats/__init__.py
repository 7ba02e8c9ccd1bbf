"""Monte-Carlo statistics collection.

* :mod:`repro.stats.summary` — distribution summaries (mean, quartiles and
  deciles) matching the candlestick plots of the paper.
* :mod:`repro.stats.montecarlo` — derivation of the independent per-run
  seeds of a Monte-Carlo sample.  Evaluating a sample is the job of
  :class:`repro.scenarios.runner.CampaignRunner`.
"""

from repro.stats.summary import DistributionSummary, summarize

__all__ = ["DistributionSummary", "summarize"]
