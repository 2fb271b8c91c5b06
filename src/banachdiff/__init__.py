"""Directional differentiability of norms on finite models of classical Banach spaces.

A public name is declared once, in its module's ``__all__``; the package
republishes the ``__all__`` of each library module below, so
``banachdiff.X`` is ``banachdiff.<module>.X`` for every such name.
"""

from .spaces import *
from .oracles import *
from .diffengine import *
from .topology import *
from .gaussmeasure import *
from .projective import *
from . import errors

__version__ = "0.1.0"
