"""The cluster complex read off Ext^1 at finite type.

JKS16 sends the rigid indecomposable non-projective CM modules to the
non-frozen cluster variables: a set of them with Ext^1 = 0 both ways on
every pair is compatible, and the maximal compatible sets are the
clusters.  Gr(3,6) and Gr(3,7) are of type D4 and E6, with 50 and 833
clusters (Fomin-Zelevinsky, "Y-systems and generalized associahedra",
2003), each of k(n-k)+1-n modules, and every cluster less one module
(a ridge) lies in exactly two clusters.  At both ambients every rigid
indecomposable module has rank 1 or 2, so the objects are the
non-projective rims and one canonical module per census class.
"""

import pytest

from grasscat.homology import canonical_module, ext1
from grasscat.modules import build_rank1, default_truncation
from grasscat.rims import all_rims, is_projective


def maximal_compatible_sets(adjacent: dict[int, set[int]]) -> list[frozenset[int]]:
    """Every maximal clique of the graph, by Bron-Kerbosch with pivoting."""
    found = []

    def extend(clique, candidates, excluded):
        if not candidates and not excluded:
            found.append(frozenset(clique))
            return
        pivot = max(candidates | excluded, key=lambda u: len(adjacent[u] & candidates))
        for v in list(candidates - adjacent[pivot]):
            extend(clique | {v}, candidates & adjacent[v], excluded & adjacent[v])
            candidates = candidates - {v}
            excluded = excluded | {v}

    extend(set(), set(adjacent), set())
    return found


@pytest.mark.parametrize("k, n, clusters", [(3, 6, 50), (3, 7, 833)])
def test_clusters_at_finite_type(k, n, clusters, census_reports):
    N = default_truncation(n)
    objects = [build_rank1(r, N) for r in all_rims(k, n) if not is_projective(r)]
    objects += [canonical_module(e.profile, N) for e in census_reports[(k, n)].rank2_rigid]
    span = range(len(objects))
    dim = {(i, j): ext1(objects[i], objects[j]).total_dim for i in span for j in span}
    # rigid, and dim Ext^1(X, Y) = dim Ext^1(Y, X): the 2-Calabi-Yau symmetry
    assert all(dim[i, i] == 0 for i in span)
    assert [(i, j) for i, j in dim if dim[i, j] != dim[j, i]] == []
    adjacent = {i: {j for j in span if j != i and dim[i, j] == 0} for i in span}
    sets = maximal_compatible_sets(adjacent)
    assert len(sets) == clusters
    assert {len(s) for s in sets} == {k * (n - k) + 1 - n}
    ridges: dict[frozenset[int], int] = {}
    for s in sets:
        for x in s:
            ridges[s - {x}] = ridges.get(s - {x}, 0) + 1
    assert set(ridges.values()) == {2}
