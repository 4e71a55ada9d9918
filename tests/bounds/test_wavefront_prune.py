"""Differential tests of the pruned wavefront search (Lemma 2).

``max_min_wavefront`` and ``automated_wavefront_bound`` skip the
max-flow of every candidate whose canonical-cut upper bound cannot beat
the incumbent, and evaluate candidates in bound order.  On random DAGs
they must return exactly what an unpruned rank-order loop over the
networkx reference ``min_wavefront_rebuild`` returns — value, wavefront
and the first-in-rank attaining vertex — on both the scipy backend and
the networkx fallback.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import repro.core.compiled as compiled_mod  # noqa: E402
import repro.core.properties as properties_mod  # noqa: E402
from repro.bounds import (  # noqa: E402
    MinCutBound,
    automated_wavefront_bound,
    heuristic_wavefront_candidates,
)
from repro.core import CDAG  # noqa: E402
from repro.core.properties import (  # noqa: E402
    canonical_cut_wavefronts,
    convex_cut_for_vertex,
    max_min_wavefront,
    min_wavefront_rebuild,
    wavefront_of_cut,
    wavefront_upper_bound,
)

_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(params=["scipy", "networkx"])
def backend(request, monkeypatch):
    """Run each test on scipy and, with scipy switched off, on the
    networkx max-flow and the pure-python BFS."""
    if request.param == "networkx":
        monkeypatch.setattr(properties_mod, "HAVE_SCIPY", False)
        monkeypatch.setattr(compiled_mod, "_sparse", None)
        monkeypatch.setattr(compiled_mod, "_csgraph", None)
    elif not properties_mod.HAVE_SCIPY:
        pytest.skip("scipy not installed")
    return request.param


@st.composite
def random_dags(draw, max_vertices=40):
    """DAGs of up to ``max_vertices`` vertices whose insertion order is
    not topological and whose successor lists are unsorted, so vertex
    ids, ranks and topological positions all disagree."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    topo = draw(st.permutations(range(n)))  # topo[k]: k-th vertex in order
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ).filter(lambda p: p[0] != p[1]),
            max_size=3 * n,
        )
    )
    edges = {(topo[min(p)], topo[max(p)]) for p in pairs}
    cdag = CDAG()
    for v in draw(st.permutations(range(n))):
        cdag.add_vertex(v)
    for u, v in sorted(edges, key=lambda e: (e[0], -e[1])):
        cdag.add_edge(u, v)
    return cdag


def _reference(cdag, candidates):
    """The unpruned loop: every candidate's exact min-cut, first
    strictly-better candidate in rank order wins."""
    best, best_vertex = 0, None
    for v in candidates:
        w = min_wavefront_rebuild(cdag, v)
        if w > best:
            best, best_vertex = w, v
    return best, best_vertex


@given(random_dags())
@_SETTINGS
def test_all_vertices_matches_unpruned_loop(backend, cdag):
    assert max_min_wavefront(cdag) == _reference(cdag, cdag.vertices)


@given(random_dags(), st.data())
@_SETTINGS
def test_candidate_subset_matches_unpruned_loop(backend, cdag, data):
    """Candidate order (with repeats) decides ties, as in the loop."""
    candidates = data.draw(
        st.lists(st.sampled_from(cdag.vertices), max_size=12)
    )
    assert max_min_wavefront(cdag, candidates) == _reference(
        cdag, candidates
    )


@given(random_dags(), st.integers(0, 6))
@_SETTINGS
def test_automated_bound_matches_unpruned_loop(backend, cdag, s):
    w, x = _reference(cdag, heuristic_wavefront_candidates(cdag))
    expected = MinCutBound(
        value=max(0.0, 2.0 * (w - s)), wavefront=w, s=s, vertex=x
    )
    assert automated_wavefront_bound(cdag, s) == expected


@given(random_dags())
@_SETTINGS
def test_upper_bound_dominates_min_wavefront(backend, cdag):
    for x in cdag.vertices:
        ub = wavefront_upper_bound(cdag, x)
        assert ub >= min_wavefront_rebuild(cdag, x)
        assert ub <= len(cdag.ancestors(x)) + 1


@given(random_dags())
@_SETTINGS
def test_first_term_is_the_canonical_cut_wavefront(backend, cdag):
    for x in cdag.vertices:
        first, second = canonical_cut_wavefronts(cdag, x)
        s_side, _ = convex_cut_for_vertex(cdag, x)
        assert first == len(wavefront_of_cut(cdag, s_side))
        not_desc = set(cdag.vertices) - cdag.descendants(x)
        assert second == len(wavefront_of_cut(cdag, not_desc))


def test_empty_cdag(backend):
    assert max_min_wavefront(CDAG()) == (0, None)
    assert automated_wavefront_bound(CDAG(), 3) == MinCutBound(
        value=0.0, wavefront=0, s=3, vertex=None
    )
