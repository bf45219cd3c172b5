import json

import numpy as np
import pytest
import scipy.sparse as sp

from subteam.graph import SocialNetwork


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
