"""Reference implementations kept as test oracles for the package's fused paths."""

import numpy as np

import copulashift.autodiff as ad
from copulashift.copula import _pair_index


def smooth_taus_composite(f: ad.Node, a: float) -> ad.Node:
    """The graph-composite form of ``copula._smooth_taus``.

    Gathers the even prefix and the two rows of each disjoint pair with
    ``take_rows``, the two columns of each feature pair with ``take_cols``,
    then ``mul``, ``scale``, ``tanh`` and ``mean_rows``.
    """
    n = f.shape[0] - f.shape[0] % 2
    if n != f.shape[0]:
        f = ad.take_rows(f, np.arange(n))
    first, second = _pair_index(f.shape[1])
    diff = ad.take_rows(f, np.arange(0, n, 2)) - ad.take_rows(f, np.arange(1, n, 2))
    prod = ad.take_cols(diff, first) * ad.take_cols(diff, second)
    return ad.mean_rows(ad.tanh(prod * a))
