"""The epsilon search's verdict: rv_positivity_check(instance).passed, from what a search holds fixed.

`max_epsilon_search` needs only pass or fail per point, and its instances
differ only in their site maps: `EpsilonProbe` resolves the rest once and
runs the certificate's own scan in its early-exit mode.
"""

from __future__ import annotations

import numpy as np

from pepslhv.construction import PepsInstance
from pepslhv.decomposition import _element_coords, _families, _row_blocks, _scan_family, _search_parts


class EpsilonProbe:
    """rv_positivity_check(instance).passed, for the instances of one epsilon search.

    Built from the first instance: _search_parts and the elements' coordinates,
    in column slices of about SCAN_BLOCK_ENTRIES (BLAS packs each product's
    slice).  A call makes each family from the instance's site maps when its
    turn comes and stops at the first slice failing a row, starting with the
    (family, slice) that failed last.  A non-finite output raises the
    certificate's UsageError.
    """

    def __init__(self, instance: PepsInstance):
        self._bonds, self._work = _search_parts(instance)
        mset, where = instance.measurement_set, []
        stack = np.empty((mset.dim**2, mset.n_elements))
        for w, coords in _element_coords(mset):
            stack[:, len(where) : len(where) + len(w)] = coords
            where += w
        self._blocks = [(where[p:q], stack[:, p:q]) for p, q in _row_blocks(len(where), len(stack))]
        self._last = (0, 0)

    def __call__(self, instance: PepsInstance) -> bool:
        f, b = self._last
        bonds, blocks = self._bonds[f:] + self._bonds[:f], self._blocks[b:] + self._blocks[:b]
        for k, (s, coords, traces) in enumerate(_families(instance, (bonds, self._work))):
            failed = _scan_family(instance, s, coords, traces, blocks, 0, early=True)
            if failed is not None:
                self._last = ((f + k) % len(bonds), (b + failed) % len(blocks))
                return False
        return True
