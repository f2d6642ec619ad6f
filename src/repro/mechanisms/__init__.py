"""Competitor LDP frequency oracles used in the paper's evaluation.

All mechanisms implement the :class:`FrequencyOracle` interface — simulate
clients (`collect`), estimate frequencies server-side (`frequencies` /
`all_frequencies`) — so the experiment harness can treat them uniformly
and derive join-size estimates from frequency-vector inner products
(:func:`estimate_join_via_frequencies`), exactly the way the paper employs
them as join-size baselines.
"""

from .base import FrequencyOracle, estimate_join_via_frequencies
from .krr import KRROracle
from .olh import OLHOracle
from .flh import FLHOracle
from .hcms import HCMSOracle
from .ldpjs import LDPJoinSketchOracle
from .oue import OUEOracle

__all__ = [
    "FrequencyOracle",
    "estimate_join_via_frequencies",
    "KRROracle",
    "OLHOracle",
    "FLHOracle",
    "HCMSOracle",
    "LDPJoinSketchOracle",
    "OUEOracle",
]
