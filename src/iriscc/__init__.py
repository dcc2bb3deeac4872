"""Rate control on shared bottlenecks: a delay-gradient controller that
learns how its sending rate moves queueing delay, classic loss- and
delay-based baselines, a deterministic event-driven network simulator,
and fairness/convergence metrics for comparing them.

Import each name from the submodule that owns it, for example
``from iriscc.metrics import fairness_report``.
"""

__version__ = "0.1.0"
