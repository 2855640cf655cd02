"""Multi-level coarsening: build, flatten, refinement and conservation."""

from __future__ import annotations

import numpy as np
import pytest

import spectral_abstraction as sa
from spectral_abstraction.errors import (
    KOutOfRangeError,
    LevelOutOfRangeError,
    SpecMonotonicityViolationError,
)
from spectral_abstraction.hierarchy import (
    Hierarchy,
    HierarchyLevel,
    LevelSpec,
    build_hierarchy,
    flatten,
)

from conftest import nested_sbm, random_connected_graph
from oracles import label_agreement


def total_weight(g) -> float:
    return sum(w for _, _, w in g.edges)


class TestBuildHierarchy:
    def test_identity_level(self, bridged_triangles):
        h = build_hierarchy(bridged_triangles, [LevelSpec(k=6)])
        assert h.depth == 1
        assert h.levels[0].partition.assignment.tolist() == [0, 1, 2, 3, 4, 5]
        assert h.levels[0].quotient.edges == bridged_triangles.edges

    def test_bridged_level_collapses_to_one_edge(self, bridged_triangles):
        h = build_hierarchy(bridged_triangles, [LevelSpec(k=2)])
        lvl = h.levels[0]
        assert lvl.partition.assignment.tolist() == [0, 0, 0, 1, 1, 1]
        assert lvl.quotient.n == 2
        assert lvl.quotient.edges == ((0, 1, 1.0),)
        assert lvl.embedding_dim == 1

    def test_nested_planted_blocks_recovered_at_both_levels(self):
        g = nested_sbm(4, 6, 0.9, 0.3, 0.02, seed=5)
        fine = [i // 6 for i in range(24)]
        coarse = [i // 12 for i in range(24)]
        h = build_hierarchy(g, [LevelSpec(k=4), LevelSpec(k=2)])
        assert label_agreement(list(h.levels[0].partition.assignment), fine, 4) == 1.0
        base_coarse = flatten(h, 1)
        assert label_agreement(list(base_coarse.assignment), coarse, 2) == 1.0

    def test_methods_can_differ_per_level(self, bridged_triangles):
        h = build_hierarchy(
            bridged_triangles,
            [LevelSpec(k=2, method="kway-embedding", dim=1)],
        )
        assert h.levels[0].partition.assignment.tolist() == [0, 0, 0, 1, 1, 1]

    def test_recursive_p_method(self, bridged_triangles):
        from spectral_abstraction.nonlinear import PLaplacianParams

        h = build_hierarchy(
            bridged_triangles,
            [LevelSpec(k=2, method="recursive-p", p_params=PLaplacianParams(p=1.3))],
        )
        assert h.levels[0].partition.assignment.tolist() == [0, 0, 0, 1, 1, 1]

    def test_nonmonotone_counts_rejected(self, bridged_triangles):
        with pytest.raises(SpecMonotonicityViolationError):
            build_hierarchy(bridged_triangles, [LevelSpec(k=2), LevelSpec(k=2)])
        with pytest.raises(SpecMonotonicityViolationError):
            build_hierarchy(bridged_triangles, [LevelSpec(k=2), LevelSpec(k=3)])

    def test_empty_specs_rejected(self, bridged_triangles):
        with pytest.raises(ValueError):
            build_hierarchy(bridged_triangles, [])

    def test_oversized_k_propagates(self, triangle):
        with pytest.raises(KOutOfRangeError):
            build_hierarchy(triangle, [LevelSpec(k=5)])

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            LevelSpec(k=2, method="agglomerative")

    def test_rebuilding_gives_an_equal_hierarchy(self):
        g = nested_sbm(4, 6, 0.9, 0.3, 0.02, seed=5)
        specs = [LevelSpec(k=4, method="kway-embedding", dim=3), LevelSpec(k=2)]
        first, second = build_hierarchy(g, specs), build_hierarchy(g, specs)
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)
        assert first != build_hierarchy(g, specs[:1])


class TestFlatten:
    def test_level_zero_is_its_own_partition(self, bridged_triangles):
        h = build_hierarchy(bridged_triangles, [LevelSpec(k=3), LevelSpec(k=2)])
        assert flatten(h, 0) == h.levels[0].partition

    def test_identity_hierarchy_flattens_to_identity(self, bridged_triangles):
        h = build_hierarchy(bridged_triangles, [LevelSpec(k=6)])
        assert flatten(h, 0).assignment.tolist() == [0, 1, 2, 3, 4, 5]

    def test_level_out_of_range(self, bridged_triangles):
        h = build_hierarchy(bridged_triangles, [LevelSpec(k=2)])
        with pytest.raises(LevelOutOfRangeError):
            flatten(h, 1)
        with pytest.raises(LevelOutOfRangeError):
            flatten(h, -1)


def random_decreasing_specs(rng, n: int) -> list[LevelSpec]:
    ks = []
    k = n
    while True:
        k = int(rng.integers(1, k)) if k > 1 else 1
        ks.append(k)
        if k == 1 or len(ks) == 3 or rng.random() < 0.4:
            break
    return [LevelSpec(k=k) for k in ks]


class TestStructuralInvariants:
    def test_refinement_and_conservation_over_random_hierarchies(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(4, 18))
            g = random_connected_graph(rng, n)
            specs = random_decreasing_specs(rng, n)
            h = build_hierarchy(g, specs)

            prev_total = total_weight(g)
            prev_nodes = g.n
            for lvl in h.levels:
                # weight conservation: crossing weight moves to the quotient,
                # intra-cluster weight is absorbed
                intra = sum(c.internal_weight for c in lvl.profile.clusters)
                assert abs(total_weight(lvl.quotient) + intra - prev_total) < 1e-9
                assert lvl.quotient.n == lvl.partition.k
                assert lvl.quotient.n < prev_nodes or lvl.partition.k == prev_nodes
                prev_total = total_weight(lvl.quotient)
                prev_nodes = lvl.quotient.n

            for t in range(h.depth - 1):
                fine = flatten(h, t).assignment
                coarse = flatten(h, t + 1).assignment
                parent: dict[int, int] = {}
                for f_label, c_label in zip(fine, coarse):
                    assert parent.setdefault(f_label, c_label) == c_label

    def test_depth_property(self, bridged_triangles):
        h = build_hierarchy(bridged_triangles, [LevelSpec(k=4), LevelSpec(k=2)])
        assert h.depth == 2
        assert isinstance(h, Hierarchy)
        assert all(isinstance(lvl, HierarchyLevel) for lvl in h.levels)
        assert [lvl.level_index for lvl in h.levels] == [0, 1]
