"""Experiment harness: one driver per paper table/figure.

Usage::

    from repro.harness import run_experiment
    print(run_experiment("fig14").render())

or from the command line::

    python -m repro.harness fig14 [quick|full]
"""

from __future__ import annotations

from typing import Callable, Dict

from . import (
    fig04,
    fig07,
    fig14,
    fig15,
    fig16,
    fig17,
    fig18,
    fig19,
    fig20,
    tab01,
    tab02,
    tab03,
    tab04,
)
from ..core.messages import reset_ids
from .profiles import PROFILES, Profile, get_profile
from .report import ExperimentReport, Expectation, format_table
from .suite import SUITE_WORKLOADS, VariantSet, clear_cache, run_fig14_suite

EXPERIMENTS: Dict[str, Callable[[str], ExperimentReport]] = {
    "fig04": fig04.run,
    "fig07": fig07.run,
    "fig14": fig14.run,
    "fig15": fig15.run,
    "fig16": fig16.run,
    "fig17": fig17.run,
    "fig18": fig18.run,
    "fig19": fig19.run,
    "fig20": fig20.run,
    "tab01": tab01.run,
    "tab02": tab02.run,
    "tab03": tab03.run,
    "tab04": tab04.run,
}


def run_experiment(exp_id: str, profile: str = "full") -> ExperimentReport:
    """Run one paper experiment by id ('fig14', 'tab03', ...)."""
    if exp_id not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {exp_id!r}; "
                       f"have {sorted(EXPERIMENTS)}")
    # Message uids (= request/walk correlation ids) restart per
    # experiment so serial and --parallel runs number requests
    # identically; see core.messages.reset_ids.
    reset_ids()
    return EXPERIMENTS[exp_id](profile)


__all__ = [
    "EXPERIMENTS",
    "run_experiment",
    "ExperimentReport",
    "Expectation",
    "format_table",
    "Profile",
    "PROFILES",
    "get_profile",
    "run_fig14_suite",
    "SUITE_WORKLOADS",
    "VariantSet",
    "clear_cache",
]
