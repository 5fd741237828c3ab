"""SCTL-family refinement output pinned against SHA-256 digests.

The parity suites compare refinement modes with each other (streamed vs
collected paths, serial vs pooled, resumed vs uninterrupted); the digests
here pin the JSON of each result, statistics included, against what an
earlier implementation answered — so a change in sweep order, tie-break,
extraction or in the keys of ``result.stats`` shows up even when every
mode changes alike.  The digests do not depend on the Python version or
on ``PYTHONHASHSEED``.

The complete multipartite graphs are the k-dense extremal kind (Eroh et
al.): every maximal clique takes one vertex per part, so the index holds
one path per clique and the path table's size is known in closed form.
``K_{14x2}`` at k=14 needs more table entries than the index holds and is
refined off a stream of the tree; ``K_{7x4}`` at k=7 fits and is refined
off the table.  With two workers the stream's rounds are filtered in the
pool and the table's in this process; both must answer the same digests.
"""

import hashlib
from itertools import combinations

import pytest

from repro import RunOptions
from repro.core import SCTIndex, sctl, sctl_plus, sctl_star, sctl_star_sample
from repro.graph import Graph
from repro.graph.generators import overlapping_community_graph

COMMUNITY = {
    "sctl-5": (
        lambda index: sctl(index, 5, iterations=7),
        "9b0270786a6133292a9cb5d31c87e1315445f668a051212a5d1b2d5c6f253d05",
    ),
    "sctl-5-convergence": (
        lambda index: sctl(index, 5, iterations=7, track_convergence=True),
        "69e73fd81dcde4cc6bb6eb243b59640508763c8abb5656514356b7e47467bb68",
    ),
    "sctl+-5": (
        lambda index: sctl_plus(index, 5, iterations=7),
        "ff946251d496bb31e8efb14a17b74c45d754c297c317ededaf1b9631f34f3931",
    ),
    "sctl*-5": (
        lambda index: sctl_star(index, 5, iterations=7),
        "9772f624eea44ed4bcc871fdfaec47276e9d1e25882860a4b6dae47f0738cfb3",
    ),
    "sctl*-5-no-reductions": (
        lambda index: sctl_star(index, 5, iterations=7, use_reductions=False),
        "e76db0f8f5832c2298425b0cffbf700a6f64fc6bf9028e03d003aa64d3b6b9b0",
    ),
    "sctl*-4": (
        lambda index: sctl_star(index, 4, iterations=7),
        "bf99715122639dbdbee7544fea691242ad1cfb9d7188a3446e52348313827dfb",
    ),
    "sctl*-sample-5": (
        lambda index: sctl_star_sample(
            index, 5, sample_size=500, iterations=7, seed=3
        ),
        "04ec7eedeeeeba2715994476df08f64b7cd91dfdfbbc3263ed025fdade1e8853",
    ),
}

MULTIPARTITE = {
    # (parts of size part, n, k, call, digest)
    "K14x2-sctl*": (
        2, 28, 14, sctl_star,
        "9ff26a10a21f8f17bb58c690c4745b105f9e23f784028c9cef110692c39a82b3",
    ),
    "K14x2-sctl": (
        2, 28, 14, sctl,
        "7173c18b0261d15937e0db2c6d5c167d98d919c72eba3dc95a5c96c10458f632",
    ),
    "K7x4-sctl*": (
        4, 28, 7, sctl_star,
        "3cf01b655bc9655bb9428363e35a2b0dad76a2d0f6165e09800246f7d45a8e36",
    ),
    "K7x4-sctl": (
        4, 28, 7, sctl,
        "b20670a043382fec6de1ce3ed35832436a00fbc4ca5d2586d84029cc9728a61c",
    ),
}


def digest(result) -> str:
    payload = result.to_json(include_stats=True, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def complete_multipartite(n: int, part: int) -> Graph:
    return Graph.from_edges(
        [(u, v) for u, v in combinations(range(n), 2) if u // part != v // part]
    )


@pytest.fixture(scope="module")
def community_index():
    graph = overlapping_community_graph(
        600, 40, 20, 0.55, memberships=2, seed=1
    )
    return SCTIndex.build(graph)


@pytest.mark.parametrize("name", sorted(COMMUNITY))
def test_community_refinement_matches_golden(community_index, name):
    call, expected = COMMUNITY[name]
    assert digest(call(community_index)) == expected


@pytest.mark.parametrize(
    "name, options",
    [
        pytest.param(name, options, id=name + suffix)
        for name in sorted(MULTIPARTITE)
        for options, suffix in (
            (None, ""), (RunOptions(parallel=2), "-parallel-2")
        )
    ],
)
def test_multipartite_refinement_matches_golden(name, options):
    part, n, k, call, expected = MULTIPARTITE[name]
    index = SCTIndex.build(complete_multipartite(n, part))
    assert digest(call(index, k, iterations=5, options=options)) == expected
