import json
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import settings

from subteam.graph import SocialNetwork

# the active profile ("ci" when the CI variable is set), printing each failure's
# @reproduce_failure blob, so a failed property can be replayed exactly
settings.register_profile("blob", settings(), print_blob=True)
settings.load_profile("blob")

# On a failing property Hypothesis' pytest plugin imports this module to suggest
# an @example; where libcst is installed that import warns DeprecationWarning,
# which the suite's filters turn into an error the plugin does not catch, and
# the run ends in INTERNALERROR. Importing it once here, warnings ignored, keeps
# a failing property one failed test.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def strict_json(text: str):
    """``json.loads`` that fails on NaN and ±Infinity, which are not JSON."""

    def reject(constant):
        raise ValueError(f"{constant} is not a JSON value")

    return json.loads(text, parse_constant=reject)


def net_from_dense(adjacency, features) -> SocialNetwork:
    return SocialNetwork(
        adjacency=sp.csr_array(np.asarray(adjacency, dtype=float)),
        features=sp.csr_array(np.asarray(features, dtype=float)),
    )


@pytest.fixture
def tiny_net():
    """3-node path graph 0-1-2 (weight 2 on the 1-2 edge) with 2 features."""
    adjacency = [[0, 1, 0], [1, 0, 2], [0, 2, 0]]
    features = [[1, 0], [0, 1], [1, 1]]
    return net_from_dense(adjacency, features)
