"""Bit-exactness pins for synthetic generation and curve writing.

The digests below were taken from the point-at-a-time generator (one
``next_u64`` per draw, one ``math`` call per sample). Any change to the
draw order, to the rounding of a single sample or to the RNG state left
for the placement draws changes a digest.
"""

import hashlib
import math

import numpy as np
import pytest

from tsadbench.datasets import CURVE_CHUNK_ROWS, CURVE_HEADER, write_curve_csv
from tsadbench.rng import SplitMix64
from tsadbench.synth import AnomalySpec, SynthConfig, generate

MAX_SEED = 2**64 - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _scalar_outputs(rng, k):
    return [rng.next_u64() for _ in range(k)]


class TestBlockDraws:
    @pytest.mark.parametrize("seed", [0, 1234567, MAX_SEED])
    @pytest.mark.parametrize("k", [0, 1, 2, 7, 1000])
    def test_block_equals_repeated_next_u64(self, seed, k):
        block, scalar = SplitMix64(seed), SplitMix64(seed)
        out = block.next_u64_block(k)
        assert out.dtype == np.uint64 and out.shape == (k,)
        assert out.tolist() == _scalar_outputs(scalar, k)
        assert block._state == scalar._state
        assert block.next_u64() == scalar.next_u64()

    def test_block_across_the_state_wrap(self):
        # the first step already overflows the 64-bit state, and j * golden
        # overflows for every j >= 2
        seed = 2**64 - 2
        assert seed + _GOLDEN >= 2**64 and 10 * _GOLDEN >= 5 * 2**64
        block, scalar = SplitMix64(seed), SplitMix64(seed)
        assert block.next_u64_block(10).tolist() == _scalar_outputs(scalar, 10)
        assert block._state == scalar._state == (seed + 10 * _GOLDEN) % 2**64

    def test_blocks_interleave_with_scalar_draws(self):
        block, scalar = SplitMix64(99), SplitMix64(99)
        got = []
        got.append(block.uniform())
        got += block.next_u64_block(3).tolist()
        got.append(block.randint(17))
        got += block.next_u64_block(0).tolist()
        got += block.next_u64_block(1).tolist()
        got.append(block.normal())
        got += block.next_u64_block(5).tolist()
        want = [scalar.uniform()]
        want += _scalar_outputs(scalar, 3)
        want.append(scalar.randint(17))
        want += _scalar_outputs(scalar, 1)
        want.append(scalar.normal())
        want += _scalar_outputs(scalar, 5)
        assert got == want
        assert block._state == scalar._state

    @pytest.mark.parametrize("seed", [0, 12, MAX_SEED])
    @pytest.mark.parametrize("k", [0, 1, 500])
    def test_normal_block_equals_repeated_normal(self, seed, k):
        block, scalar = SplitMix64(seed), SplitMix64(seed)
        got = block.normal_block(k)
        assert got.dtype == np.float64 and got.shape == (k,)
        assert [v.hex() for v in got.tolist()] == [scalar.normal().hex() for _ in range(k)]
        assert block._state == scalar._state


def _digest(series) -> str:
    h = hashlib.sha256()
    h.update(",".join(float.hex(v) for v in series.values.tolist()).encode())
    h.update(b"|")
    h.update("".join(map(str, series.labels.tolist())).encode())
    return h.hexdigest()


ALL_KINDS = (
    AnomalySpec("global"),
    AnomalySpec("contextual", count=2),
    AnomalySpec("seasonal", min_len=10, max_len=20),
    AnomalySpec("trend", min_len=10, max_len=20),
    AnomalySpec("shapelet", min_len=10, max_len=20),
)

PINNED = [
    (SynthConfig(id="a", length=400, seed=0, anomalies=(AnomalySpec("global", count=2),)),
     "5ab68b404f3fdda87d8b7b8996177f8404fbaf1f1fe9d875aafa9bcaf4bb010c"),
    (SynthConfig(id="b", length=1000, seed=1, periods=(40.0, 9.5), amplitudes=(1.0, 0.3),
                 anomalies=(AnomalySpec("contextual", count=3),)),
     "03e03fb1b067da4c3907558f45a96d57eb6711c598e8f1a5b0c57195ac1bfd10"),
    (SynthConfig(id="c", length=2000, seed=7, periods=(50.0, 13.0, 7.25),
                 amplitudes=(1.0, 0.4, 0.2), noise_sigma=0.1,
                 anomalies=(AnomalySpec("seasonal", count=2, min_len=15, max_len=30),)),
     "839ba3c9b2e19c844e9c8394d6a5794692a8d485fb8ec4c166bdcd64288ac36e"),
    (SynthConfig(id="d", length=600, seed=3, noise_sigma=0.0,
                 anomalies=(AnomalySpec("trend", min_len=20, max_len=25),)),
     "c880172fef4479958593a1d330e0efab4491ac659da851f4ca072252e2f9aaef"),
    (SynthConfig(id="e", length=800, seed=4, inject_region="anywhere",
                 anomalies=(AnomalySpec("shapelet", count=3, min_len=10, max_len=30),)),
     "b07f6e75a210b2f59c591e1b1b47df4155ade57bc73ba344c52026bdc6c3f265"),
    (SynthConfig(id="f", length=1500, seed=MAX_SEED, periods=(31.0, 17.0, 5.5),
                 amplitudes=(2.0, 1.0, 0.5), noise_sigma=1.5, anomalies=ALL_KINDS),
     "dea05b9cc05f74ae070391fa9893d47f55704244ae6e44788ff125b7f070ce3f"),
    # integer periods, amplitudes and sigma take Python's int arithmetic
    (SynthConfig(id="g", length=500, seed=21, periods=(24,), amplitudes=(2,), noise_sigma=1,
                 anomalies=(AnomalySpec("global"), AnomalySpec("shapelet", min_len=5,
                                                               max_len=9))),
     "69995817e3610dadf5588599579484459bd2b6ef095412fb7dcc9a2cfb8ca601"),
    (SynthConfig(id="h", length=9000, seed=1_000_003, periods=(200.0, 37.0),
                 amplitudes=(1.0, 0.5),
                 anomalies=(AnomalySpec("global", count=3),
                            AnomalySpec("shapelet", count=2, min_len=20, max_len=40),
                            AnomalySpec("trend", count=1, min_len=30, max_len=50))),
     "537118d7b2ac9e2fe30bb4a6fdfb229b6199a9fa47a94e24ba1a38e7e5a29ca3"),
    (SynthConfig(id="i", length=100, seed=2**63, periods=(3.3,), amplitudes=(-1.0,),
                 noise_sigma=0.0, inject_region="anywhere", anomalies=ALL_KINDS[:2]),
     "478b35f1bac77bcecd5934e609aa1bde0c1be88d9595e0d49bba575c3c445ac0"),
    (SynthConfig(id="j", length=4000, seed=11 * 1_000_003 + 39, periods=(90.0,),
                 noise_sigma=0.05, anomalies=(ALL_KINDS[4], ALL_KINDS[0])),
     "00a6e2f484b8b5ffb584318bdaeef78c303463af82a18ba84864b2d9bd0085cf"),
]


@pytest.mark.parametrize("config, digest", PINNED, ids=[c.id for c, _ in PINNED])
def test_generate_is_pinned(config, digest):
    assert _digest(generate(config)) == digest


def _per_line(values, labels) -> str:
    """The curve format written one row at a time."""
    rows = [CURVE_HEADER + "\n"]
    for i, (v, l) in enumerate(zip(values, labels)):
        rows.append(f"{i},{repr(float(v))},{int(l)}\n")
    return "".join(rows)


EDGE_VALUES = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e300, 0.1, 1 / 3, 7.0]
EDGE_LABELS = [0, 1, 0, 1, 1, 0, 0, 1, 0]


class TestWriteCurveCsv:
    def _read(self, path):
        with open(path, "rb") as fh:
            return fh.read()

    @pytest.mark.parametrize(
        "values, labels",
        [
            (EDGE_VALUES, EDGE_LABELS),
            (np.array(EDGE_VALUES), np.array(EDGE_LABELS)),
            (np.arange(9, dtype=np.int64) - 4, EDGE_LABELS),
            ([3, -1, 0, 2, 9, 8, 7, 6, 5], [float(x) for x in EDGE_LABELS]),
            (np.array(EDGE_VALUES), np.array(EDGE_LABELS, dtype=np.float64)),
            (EDGE_VALUES, EDGE_LABELS[:5]),
            (np.linspace(-1.0, 1.0, 20_001), np.arange(20_001) % 2),
            (np.arange(2 * CURVE_CHUNK_ROWS) / 7.0, np.zeros(2 * CURVE_CHUNK_ROWS, int)),
        ],
        ids=["lists", "float-arrays", "int-array", "int-values-float-labels",
             "float-labels-array", "short-labels", "long", "two-full-chunks"],
    )
    def test_bytes_match_per_line_format(self, tmp_path, values, labels):
        path = tmp_path / "c.csv"
        write_curve_csv(str(path), values, labels)
        assert self._read(path) == _per_line(values, labels).encode("utf-8")

    def test_literal_rows(self, tmp_path):
        path = tmp_path / "c.csv"
        write_curve_csv(str(path), EDGE_VALUES[:6], EDGE_LABELS[:6])
        assert self._read(path) == (
            b"index,value,label\n"
            b"0,0.0,0\n"
            b"1,-0.0,1\n"
            b"2,5e-324,0\n"
            b"3,-2.2250738585072014e-308,1\n"
            b"4,1e+300,1\n"
            b"5,-1e+300,0\n"
        )

    def test_values_round_trip(self, tmp_path):
        path = tmp_path / "c.csv"
        write_curve_csv(str(path), EDGE_VALUES, EDGE_LABELS)
        rows = self._read(path).decode().splitlines()[1:]
        back = [float(r.split(",")[1]) for r in rows]
        assert [math.copysign(1.0, v) for v in back] == [
            math.copysign(1.0, v) for v in EDGE_VALUES
        ]
        assert back == EDGE_VALUES
