"""Diffusion chip-firing on graphs: simulation, perturbation quiescence, and
exhaustive subset/graph searches."""

from .engine import *
from .enumeration import *
from .graphs import *
from .paths import *
from .quiescence import *

__all__ = (engine.__all__ + enumeration.__all__ + graphs.__all__
           + paths.__all__ + quiescence.__all__)
