"""Seeded relabelling of catalog groups.

Labelling seed 0 keeps the catalog labelling.  Any other seed, together
with a variant number, applies a random permutation of the element indices
that fixes the identity at index 0,
carries the catalog generators (and the permutation representation, when
there is one) across, and builds the result through the public
``FiniteGroup`` constructor.  Every labelling seed, 0 included, goes through
the same construction, so seed 0 pays the same set-up cost as the others and
starts with the same empty caches.
"""

from __future__ import annotations

import zlib

import numpy as np

from hgs import FiniteGroup, PermRep


def labelling(order: int, seed: int, label: str, variant: int = 0) -> np.ndarray:
    """sigma[old index] = new index; sigma[0] = 0, identity for seed 0."""
    # the generator is made for seed 0 too, so every seed loads numpy.random
    rng = np.random.default_rng([seed, variant, zlib.crc32(label.encode())])
    rest = np.arange(1, order) if seed == 0 else 1 + rng.permutation(order - 1)
    return np.concatenate([[0], rest]).astype(np.int64)


def relabel(G: FiniteGroup, seed: int, label: str, variant: int = 0) -> FiniteGroup:
    """Copy of G renumbered by ``labelling(G.order, seed, label, variant)``."""
    sigma = labelling(G.order, seed, label, variant)
    back = np.argsort(sigma)  # back[new index] = old index
    mul = sigma[G.mul[np.ix_(back, back)]].astype(np.int32)
    perm_rep = None
    if G.perm_rep is not None:
        images = np.ascontiguousarray(G.perm_rep.images[back])
        images.setflags(write=False)
        perm_rep = PermRep(G.perm_rep.degree, images)
    # the table is a conjugate of a verified table, so the cubic
    # associativity sweep is skipped; rows, columns and the identity are
    # still validated by the constructor
    return FiniteGroup(mul, name=G.name, perm_rep=perm_rep,
                       gens=[int(sigma[g]) for g in G.gens],
                       assume_associative=True)
