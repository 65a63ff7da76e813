"""gweave: finite-dimensional g-frame analysis and weaving certification.

The package exports exactly the names each module lists in its own
``__all__``; ``generate`` is the function, not its submodule.
"""

from . import generate as _generate, gframe, linalg, perturb, riesz, weaving
from .linalg import *
from .gframe import *
from .weaving import *
from .riesz import *
from .perturb import *
from .generate import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *(
        name
        for module in (linalg, gframe, weaving, riesz, perturb, _generate)
        for name in module.__all__
    ),
]
