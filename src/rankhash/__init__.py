"""Learned rank-order hashing with baselines and retrieval evaluation.

The package trains hash functions that encode a vector by the index of its
largest learned projection, one symbol per projection matrix. Codes support
Hamming-ball range lookup and Hamming/weighted kNN retrieval, evaluated
against data-agnostic winner-take-all and random-hyperplane baselines at
equal packed-bit budgets.
"""

from . import core, data, evaluation, hashers, learning
from .core import *
from .data import *
from .evaluation import *
from .hashers import *
from .learning import *

__all__ = [*core.__all__, *data.__all__, *evaluation.__all__, *hashers.__all__, *learning.__all__]

__version__ = "0.1.0"
