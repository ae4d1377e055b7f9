"""Round-synchronous rumor spreading on graphs: neighbor-sampling protocols,
random-walk agent protocols, coupled simulations with verifiable transcripts,
and a seeded experiment harness."""

from . import coupling, errors, experiments, graphs, protocols, rng
from .coupling import *  # noqa: F403 -- each module's __all__ is its API
from .errors import *  # noqa: F403
from .experiments import *  # noqa: F403
from .graphs import *  # noqa: F403
from .protocols import *  # noqa: F403
from .rng import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name for module in (errors, graphs, rng, protocols, coupling, experiments)
    for name in module.__all__]
