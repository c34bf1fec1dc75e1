"""Covariance-matrix rank estimation by sequential spectral testing.

The pipeline: form the sample covariance of an n x p data matrix, take its
descending eigenvalues, and test the nested hypotheses "rank <= k-1" for
k = 1, 2, ... with a conditional singular-value statistic whose null
distribution is asymptotically Unif(0,1). The number of rejections before
the first acceptance estimates the rank. A Monte Carlo harness reproduces
the reference simulation design and checks the uniformity claim.
"""

from . import dgp, errors, montecarlo, sequential, spectrum, statistic
from .errors import *
from .dgp import *
from .spectrum import *
from .statistic import *
from .sequential import *
from .montecarlo import *

__version__ = "0.1.0"

__all__ = []
__all__ += errors.__all__
__all__ += dgp.__all__
__all__ += spectrum.__all__
__all__ += statistic.__all__
__all__ += sequential.__all__
__all__ += montecarlo.__all__
