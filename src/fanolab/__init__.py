"""Fano-type lower bounds for statistical estimation.

Exact information quantities on finite alphabets, distance-based and
volume-based Fano inequalities, minimax risk pipelines for four Gaussian
estimation problems, and a seeded Monte Carlo lab that audits every
computed bound against exhaustive oracles and simulated estimators.

__all__ is the union of the library modules' __all__ lists; the command
layer (fanolab.cli, fanolab.verify) exports nothing.
"""

__version__ = "0.1.0"

from . import continuum, discrete, info, lab, minimax, results, stats, streams
from .continuum import *  # noqa: F401,F403
from .discrete import *  # noqa: F401,F403
from .info import *  # noqa: F401,F403
from .lab import *  # noqa: F401,F403
from .minimax import *  # noqa: F401,F403
from .results import *  # noqa: F401,F403
from .stats import *  # noqa: F401,F403
from .streams import *  # noqa: F401,F403

__all__ = [name for module in (info, discrete, continuum, minimax, lab, stats, streams, results)
           for name in module.__all__]
