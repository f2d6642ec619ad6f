"""Non-private sketch substrates.

These are the classical streaming summaries the paper builds on or compares
against:

* :class:`AGMSSketch` — the original tug-of-war sketch (Alon et al.);
* :class:`FastAGMSSketch` — the Fast-AGMS sketch (Cormode & Garofalakis),
  the non-private "FAGMS" baseline of the experiments and the structure
  LDPJoinSketch privatises;
* :class:`CompassChainSketches` — COMPASS-style multiway chain-join
  sketches (Section VI baseline).
"""

from .agms import AGMSSketch
from .fast_agms import FastAGMSSketch
from .compass import CompassChainSketches, CompassMiddleSketch

__all__ = [
    "AGMSSketch",
    "FastAGMSSketch",
    "CompassChainSketches",
    "CompassMiddleSketch",
]
