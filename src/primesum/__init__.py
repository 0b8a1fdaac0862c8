"""Desk-scale verification of sumset growth for dense subsets of the primes.

The package splits into number-theoretic groundwork (`ntheory`), discrete
Fourier analysis on Z_N (`zn_spectral`), residue partitions and weighted
embeddings of prime subsets (`prime_embed`), exact sumset and moment
machinery on Z_m (`zm_sumsets`), and an experiment pipeline with a CLI
(`expcli`).
"""

from . import errors, ntheory, prime_embed, zm_sumsets, zn_spectral
from .errors import *  # noqa: F403
from .ntheory import *  # noqa: F403
from .prime_embed import *  # noqa: F403
from .zm_sumsets import *  # noqa: F403
from .zn_spectral import *  # noqa: F403

__version__ = "0.1.0"

# every submodule's own ``__all__``, so each public name is listed once
__all__ = [
    *errors.__all__,
    *ntheory.__all__,
    *prime_embed.__all__,
    *zm_sumsets.__all__,
    *zn_spectral.__all__,
    "__version__",
]
