"""The runtime's pure-Python streams and statistics equal numpy's, bit for bit.

:mod:`repro.sim.random` replaces ``numpy.random.default_rng`` and
:mod:`repro.sim.stats` replaces ``numpy.mean`` / ``numpy.percentile``; every
pinned digest was first recorded through numpy, so each draw kind and both
statistics are compared with numpy (the ``test`` extra) value for value.
A separate subprocess test shows a run never imports numpy.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys

import pytest

from repro.sim import stats
from repro.sim.random import RandomStreams, Stream, _derive_seed
from repro.telemetry.metrics import percentile

np = pytest.importorskip("numpy")

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Draws per kind per seed.
DRAWS = 100_000


def _integer_bounds(i):
    """Bounds cycling through the Lemire corners: a single value, small and
    32-bit-edge ranges (buffered 32-bit words), and 64-bit ranges."""
    spans = (1, 2, 3, 7, 100, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 3, 2**63)
    span = spans[i % len(spans)]
    low = -(i % 1000) if span == 2**63 else i % 1000 - 500
    return low, low + span


#: name -> (numpy block draw(gen, i, k) -> list, pure draw(stream, i) -> value).
#: Shuffles and permutations count their swaps, which are the draws.
KINDS = {
    "random": (lambda g, i, k: g.random(k).tolist(), lambda s, i: s.random()),
    "uniform": (
        lambda g, i, k: g.uniform(-1.5 * i, i % 97 / 7, k).tolist(),
        lambda s, i: s.uniform(-1.5 * i, i % 97 / 7),
    ),
    "integers": (
        lambda g, i, k: g.integers(*_integer_bounds(i), size=k).tolist(),
        lambda s, i: s.integers(*_integer_bounds(i)),
    ),
    "exponential": (
        lambda g, i, k: g.exponential(0.5 + i % 5, k).tolist(),
        lambda s, i: s.exponential(0.5 + i % 5),
    ),
    "pareto": (
        lambda g, i, k: g.pareto(1.1 + i % 3, k).tolist(),
        lambda s, i: s.pareto(1.1 + i % 3),
    ),
    "permutation": (
        lambda g, i, k: [g.permutation(i % 40).tolist() for _ in range(k)],
        lambda s, i: s.permutation(i % 40),
    ),
    "shuffle": (
        lambda g, i, k: [_np_shuffled(g, i) for _ in range(k)],
        lambda s, i: _shuffled(s, i),
    ),
}


def _items(i):
    return [f"n{j}" for j in range(i % 33)]


def _np_shuffled(gen, i):
    items = _items(i)
    gen.shuffle(items)
    return items


def _shuffled(stream, i):
    items = _items(i)
    stream.shuffle(items)
    return items


def _draw_weight(kind, i):
    """Underlying draws one call of *kind* makes (swaps for a shuffle)."""
    if kind == "permutation":
        return max(i % 40 - 1, 0)
    if kind == "shuffle":
        return max(i % 33 - 1, 0)
    return 1


@pytest.mark.parametrize("seed", [0, 2**63 + 7])
def test_every_draw_kind_matches_numpy_interleaved(seed):
    gen = np.random.default_rng(seed)
    stream = Stream(seed)
    counts = dict.fromkeys(KINDS, 0)
    i = 0
    while min(counts.values()) < DRAWS:
        # Alternate kinds in runs of 1..13 calls, so 32-bit and 64-bit
        # draws share numpy's buffered half-word in every order.
        pending = [name for name, count in counts.items() if count < DRAWS]
        kind = pending[i % len(pending)]
        block = 1 + (i * 7) % 13
        numpy_draw, pure_draw = KINDS[kind]
        expected = numpy_draw(gen, i, block)
        got = [pure_draw(stream, i) for _ in range(block)]
        assert got == expected, (seed, kind, i)
        counts[kind] += block * _draw_weight(kind, i)
        i += 1


def test_exponential_tail_and_rejection_paths_are_exercised():
    """The ziggurat's base-strip tail and wedge rejections both occur and match."""
    gen = np.random.default_rng(11)
    stream = Stream(11)
    expected = gen.standard_exponential(200_000).tolist()
    assert [stream.exponential(1.0) for _ in expected] == expected
    # Values past the base strip's edge come only from the tail branch.
    assert sum(1 for x in expected if x > 7.6971174701310497) > 0


def test_named_streams_are_numpy_default_rng_streams():
    streams = RandomStreams(42)
    gen = np.random.default_rng(_derive_seed(42, "flows"))
    assert [streams.exponential("flows", 3.0) for _ in range(500)] == gen.exponential(
        3.0, 500
    ).tolist()
    options = list("abcdefg")
    gen = np.random.default_rng(_derive_seed(42, "pick"))
    assert [streams.choice("pick", options) for _ in range(500)] == [
        options[int(gen.integers(0, len(options)))] for _ in range(500)
    ]


def test_numpy_integer_seed_is_accepted():
    assert RandomStreams(np.int64(3)).seed == 3
    assert RandomStreams(np.int64(3)).permutation("p", 20) == RandomStreams(3).permutation(
        "p", 20
    )
    with pytest.raises(TypeError):
        RandomStreams(3.0)


def test_negative_stream_seed_is_rejected_as_numpy_does():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError):
        Stream(-1)


# --------------------------------------------------------------------------- #
# mean and percentile
# --------------------------------------------------------------------------- #
#: Sizes straddling the 8-lane unroll, the 128-element block and the splits.
SIZES = [1, 2, 7, 8, 9, 15, 16, 17, 63, 127, 128, 129, 130, 255, 256, 257, 1000,
         8191, 8192, 8193, 20000]
QUANTILES = [0, 1, 10, 25, 50, 75, 90, 99, 99.9, 100]


def _samples(rng, n, ties):
    if ties:
        return [float(x) for x in rng.integers(0, 4, n)]
    # Magnitudes across ten decades, so any change of summation order rounds.
    return (rng.exponential(1.0, n) * 10.0 ** rng.integers(-5, 5, n)).tolist()


@pytest.mark.parametrize("ties", [False, True], ids=["spread", "ties"])
@pytest.mark.parametrize("n", SIZES)
def test_mean_and_percentiles_match_numpy(n, ties):
    rng = np.random.default_rng(n)
    for _ in range(5 if n < 8192 else 1):
        values = _samples(rng, n, ties)
        assert stats.mean(values) == float(np.mean(values))
        for q in QUANTILES:
            assert stats.percentile(values, q) == float(np.percentile(values, q)), q


def test_mean_is_pairwise_over_the_whole_sequence():
    """Peeling the first element off before the pairwise sum rounds differently."""
    values = _samples(np.random.default_rng(0), 300, ties=False)
    for n in (9, 16, 17, 100, 200):
        head = values[:n]
        peeled = (head[0] + stats._pairwise_sum(head, 1, n - 1)) / n
        assert stats.mean(head) == float(np.mean(head)) != peeled, n


@pytest.mark.parametrize("n", [1, 8, 200])
def test_mean_of_negative_zeros_keeps_numpy_sign(n):
    expected = float(np.mean([-0.0] * n))
    assert math.copysign(1.0, stats.mean([-0.0] * n)) == math.copysign(1.0, expected)


@pytest.mark.parametrize("q", [10, 15, 30, 35, 50, 70, 85])
def test_percentile_takes_both_interpolation_branches(q):
    # n = 5: position = 4q/100, so the weight lands on both sides of 0.5.
    values = [0.1, 1e-3, 7.0, 3.3333, 1e5]
    assert stats.percentile(values, q) == float(np.percentile(values, q))


def test_percentile_of_one_value_and_of_infinities():
    assert stats.percentile([2.5], 99) == 2.5 == float(np.percentile([2.5], 99))
    for values in ([1.0, math.inf], [-math.inf, 0.0, 1.0]):
        for q in (0, 50, 100):
            with np.errstate(invalid="ignore"):
                expected = float(np.percentile(values, q))
            got = stats.percentile(values, q)
            assert got == expected or (math.isnan(got) and math.isnan(expected))


def test_describe_matches_numpy_on_ints_floats_and_nan():
    ints = list(range(-40, 300, 3))
    assert stats.mean(ints) == float(np.mean(ints))
    assert percentile(ints, 50) == float(np.percentile(ints, 50))
    assert percentile(ints, 99) == float(np.percentile(ints, 99))
    floats = np.random.default_rng(8).pareto(1.2, 999).tolist()
    assert stats.mean(floats) == float(np.mean(floats))
    assert percentile(floats, 99) == float(np.percentile(floats, 99))
    with_nan = [1.0, float("nan"), 3.0]
    assert math.isnan(float(np.mean(with_nan))) and math.isnan(stats.mean(with_nan))
    assert math.isnan(percentile(with_nan, 50)) and math.isnan(percentile(with_nan, 99))


# --------------------------------------------------------------------------- #
# numpy stays out of the runtime
# --------------------------------------------------------------------------- #
_RUN_WITHOUT_NUMPY = """
import sys
sys.path.insert(0, {src!r})
import repro
from repro.experiments.scenarios import run_scenario

for backend in ("fluid", "packet"):
    run_scenario(
        "hotspot_migration",
        {{"rows": 3, "columns": 3, "mean_flow_mb": 0.01, "backend": backend,
          "controller": "loop"}},
    )
run_scenario("permutation", {{"rows": 3, "columns": 3}})
print(sorted(name for name in sys.modules if name.split(".")[0] == "numpy"))
"""


def test_a_run_on_either_backend_imports_no_numpy():
    result = subprocess.run(
        [sys.executable, "-c", _RUN_WITHOUT_NUMPY.format(src=SRC)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
