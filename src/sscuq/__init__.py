"""Uncertainty-aware voxel scene completion tools.

Two core capabilities, plus everything needed to verify them at desk
scale:

* propagation of per-pixel depth uncertainty into a probabilistic voxel
  occupancy grid via exact ray/voxel traversal;
* hierarchical conformal prediction for class-imbalanced voxel
  classification: an occupancy gate on a KL-based score with per-class
  recall guarantees, then per-class prediction sets whose error rates
  compose to the requested class-conditional coverage.

A deterministic synthetic-scene harness (label grids, rendered noisy
depths, miscalibrated softmax surrogates) makes every statistical
guarantee testable without any trained network.
"""

# each public name is declared once, in its module's __all__
from .grids import *
from .container import *
from .depth import *
from .projection import *
from .conformal import *
from .metrics import *
from .synth import *
from .pipeline import *

__version__ = "0.1.0"
