"""Similarity metrics from a sorted-components bound chain, with benchmark tooling.

Public surface: the vector type and four metrics (``metrics``), the bound
chain and its brute-force oracle (``bounds``), fractional ranking and
Spearman correlation (``ranks``), paired-comparison statistics (``stats``),
dataset IO with bundled fixtures (``io``), the evaluation harness
(``harness``), the property self-test (``selftest``), the error types
(``errors``) and the CLI (``cli``).

Each module's ``__all__`` is its only export list: the package re-exports
exactly those names, and its own ``__all__`` is their concatenation.
"""

from . import bounds, errors, harness, io, metrics, ranks, selftest, stats
from .bounds import *  # noqa: F403
from .errors import *  # noqa: F403
from .harness import *  # noqa: F403
from .io import *  # noqa: F403
from .metrics import *  # noqa: F403
from .ranks import *  # noqa: F403
from .selftest import *  # noqa: F403
from .stats import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *bounds.__all__,
    *errors.__all__,
    *harness.__all__,
    *io.__all__,
    *metrics.__all__,
    *ranks.__all__,
    *selftest.__all__,
    *stats.__all__,
]
