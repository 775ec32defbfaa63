"""Packet schedulers: classic single-interface algorithms, naive
multi-interface baselines, and the paper's miDRR."""

from typing import Callable, Dict

from .base import MultiInterfaceScheduler, SingleInterfaceScheduler
from .drr import DEFAULT_QUANTUM, DrrScheduler
from .edf import AdmissionVerdict, EdfScheduler
from .fifo import FifoScheduler, RoundRobinScheduler
from .midrr import (
    COUNTER_CAP,
    DEFICIT_SCOPES,
    EXCLUSION_MODES,
    FLAG_MODES,
    MiDrrScheduler,
)
from .per_interface import (
    PerInterfaceScheduler,
    SchedulerFactory,
    StaticSplitScheduler,
)
from .qaware import QAwareScheduler
from .wfq import WfqScheduler

#: The scheduler family, in report order: label → factory. The
#: latency-SLO report sweeps it and the CLI offers its labels.
SCHEDULER_FAMILY: Dict[str, Callable[[], MultiInterfaceScheduler]] = {
    "fifo": PerInterfaceScheduler.fifo,
    "wfq": PerInterfaceScheduler.wfq,
    "drr": PerInterfaceScheduler.drr,
    "static": StaticSplitScheduler,
    "midrr": MiDrrScheduler,
    "edf": EdfScheduler,
    "qaware": QAwareScheduler,
}

__all__ = [
    "AdmissionVerdict",
    "COUNTER_CAP",
    "DEFAULT_QUANTUM",
    "DEFICIT_SCOPES",
    "EXCLUSION_MODES",
    "DrrScheduler",
    "EdfScheduler",
    "FLAG_MODES",
    "FifoScheduler",
    "MiDrrScheduler",
    "MultiInterfaceScheduler",
    "PerInterfaceScheduler",
    "QAwareScheduler",
    "RoundRobinScheduler",
    "SCHEDULER_FAMILY",
    "SchedulerFactory",
    "SingleInterfaceScheduler",
    "StaticSplitScheduler",
    "WfqScheduler",
]
