"""Fisher information and optimal linear interferometry for localizing weak
incoherent point emitters observed through an array of light collectors."""

from . import estimation, fisher, geometry, interferometer, scenarios
from .estimation import *
from .fisher import *
from .geometry import *
from .interferometer import *
from .scenarios import *

__version__ = "0.1.0"

# Each module's __all__ names the public names it defines; the package
# exports their union.
__all__ = []
__all__ += estimation.__all__
__all__ += fisher.__all__
__all__ += geometry.__all__
__all__ += interferometer.__all__
__all__ += scenarios.__all__
