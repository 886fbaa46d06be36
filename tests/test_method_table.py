"""Every count of ``counting.METHODS`` is a property of the isomorphism
types of G and N, not of how their elements are numbered or generated.

Each (method, G, N) gives the same outcome, the value or the refusal, on
the catalog groups, on copies of G and N renumbered by seeded permutations
that fix the identity at 0, and on G rebuilt from the same table with a
second, seeded generating set.
"""

import numpy as np
import pytest

from hgs.catalog import resolve_spec
from hgs.counting import METHODS
from hgs.groups import FiniteGroup, GroupError, subgroup_closure

ORDER_120 = [("S5", "S5"), ("S5", "AxCp(A5,2)")]
SMALL = [("S3", "C6"), ("C6", "S3"), ("D4", "Q8"), ("C4xC2", "D4")]
CASES = ([("formula", g, n) for g, n in ORDER_120] + [("fpf", g, n) for g, n in ORDER_120]
         + [("byott", g, n) for g, n in ORDER_120 + SMALL]
         + [("brute", g, n) for g, n in SMALL])


def _relabelled(G: FiniteGroup, seed: int) -> FiniteGroup:
    """G renumbered by a seeded permutation that keeps 0 at 0."""
    rng = np.random.default_rng(seed)
    sigma = np.concatenate([[0], 1 + rng.permutation(G.order - 1)])
    back = np.argsort(sigma)
    return FiniteGroup(sigma[G.mul[np.ix_(back, back)]], name=G.name,
                       assume_associative=True)


def _regenerated(G: FiniteGroup, seed: int) -> FiniteGroup:
    """G's own table with generators picked greedily in a seeded order from
    the elements that are not generators of G.  They generate G whenever G
    has more than twice as many elements as generators, since a proper
    subgroup holds at most half of G."""
    gens: list[int] = []
    for x in np.random.default_rng(seed).permutation(G.order).tolist():
        if subgroup_closure(G, gens).size == G.order:
            break
        if x not in G.gens and not subgroup_closure(G, gens).contains(x):
            gens.append(x)
    H = FiniteGroup(G.mul, name=G.name, gens=gens, assume_associative=True)
    assert H.gens != G.gens
    return H


def _outcome(method: str, G: FiniteGroup, N: FiniteGroup, g: str, n: str):
    try:
        return METHODS[method](G, N, g_label=g, n_label=n).value
    except GroupError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_the_cases_cover_every_method():
    assert {method for method, _, _ in CASES} == set(METHODS)


@pytest.mark.parametrize("method, g, n", CASES, ids=[f"{m}-{g}-{n}" for m, g, n in CASES])
def test_a_count_survives_relabelling_and_a_second_generating_set(method, g, n):
    G, N = resolve_spec(g), resolve_spec(n)
    expected = _outcome(method, G, N, g, n)
    seed = sum(map(ord, method + g + n))
    assert _outcome(method, _relabelled(G, seed), _relabelled(N, seed + 1), g, n) == expected
    assert _outcome(method, _regenerated(G, seed), N, g, n) == expected
