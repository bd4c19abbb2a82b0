"""Golden digests: the bytes that training writes, pinned in Tier-1.

Each case trains through `qevo train` into a temporary directory and checks
the SHA-256 of `stats.csv` and `best_genome.json` against a recorded value.
A change to a float path (a faster policy readout, say) must leave every
digest as it is: it may move logits in the last bits, but no action may
flip.  A digest that moves is a result change, to be declared on its own;
it is never re-recorded to get a green run, and this test is never skipped
or loosened.

Recorded with NumPy 2.4.6 on Python 3.11.7, x86-64 Linux, on an Intel Xeon
whose `numpy.show_runtime()` found the SIMD extensions X86_V3, X86_V4,
AVX512_ICL and AVX512_SPR over the X86_V2 baseline, and where OpenBLAS
picks its SkylakeX kernels.  On such a machine the digests also held with
NumPy's dispatch cut to the X86_V2 baseline (NPY_DISABLE_CPU_FEATURES), and
with OPENBLAS_CORETYPE set to each of Prescott, Nehalem, Sandybridge,
Haswell and SkylakeX, under which np.vecdot, np.matvec and np.matmul give
four distinct byte streams; so neither SIMD dispatch nor the BLAS kernel
holds the bytes there, and CI runs one leg with both pinned low.  If another platform writes
different bytes, the byte contract depends on the platform: find the
operation that differs (libm, another architecture or another NumPy version
are the suspects left) and document the contract's scope.  CI prints
`numpy.show_runtime()` before the tests for that reason.
"""

import hashlib
import json
from pathlib import Path

import pytest

from qevo import cli

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

DESK_DIGESTS = {
    "cartpole_desk": (
        "40a7b1686c0f90b2ec3e61bdd42e708e25da855570d1d7fb3d397a35912ad2ca",
        "0a1454f9a2b47320ce80128c5ffe2547f3818a7bdcc9d19aef67de70eac5e6fb"),
    "minigrid5_desk": (
        "1ca2a1e92fdcc516ec5d90983e8662a1de50e4bbf8ed5dc1b35c6ab123f6e6bc",
        "ad0d9cd5715736ed36785a3efe0b86a02678245c44e4397941e256b0aa61535f"),
}

# minigrid-8 at bond dimension 4, sized to about 0.3 s; with the shipped
# init_scale the short runs never reach the goal and every row reads 0, so
# this seed and these scales were picked for a run whose rows carry rewards
MINIGRID8_CONFIG = {
    "env": "minigrid-8", "mps_bond_dim": 4, "workers": 1, "checkpoint_every": 50,
    "evo": {"population": 50, "truncation": 5, "mutation_power": 0.1,
            "repeats_all": 3, "repeats_parents": 5, "generations": 8,
            "master_seed": 2, "init_scale": 0.3},
}
MINIGRID8_DIGESTS = (
    "8100148000784026a4122e9bc9e8eccb6fa6b27bd01b662e97f1e88b5e34a0b6",
    "2f7a3a1fd896bcfa6fb91923a8b11b13973b7e9c5bed36aee3b7d50b5b0a5ab8")


def train_digests(out_dir: Path, *args: str) -> tuple[str, str]:
    assert cli.main(["train", *args, "--out-dir", str(out_dir)]) == 0
    return tuple(hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                 for name in ("stats.csv", "best_genome.json"))


@pytest.mark.parametrize("name,generations,workers", [
    ("cartpole_desk", 60, 1),
    ("minigrid5_desk", 20, 1),
    ("minigrid5_desk", 20, 2),  # a process pool must write the same bytes
])
def test_desk_run_digests(tmp_path, name, generations, workers):
    config = CONFIG_DIR / f"{name}.json"
    assert train_digests(tmp_path, "--config", str(config), "--generations",
                         str(generations), "--workers", str(workers)) == DESK_DIGESTS[name]


def test_minigrid8_bond4_digests(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(MINIGRID8_CONFIG))
    out_dir = tmp_path / "run"
    assert train_digests(out_dir, "--config", str(config)) == MINIGRID8_DIGESTS
    rows = (out_dir / "stats.csv").read_text().splitlines()[1:]
    # an all-zero stats.csv would pin nothing about the policy
    assert any(float(value) != 0.0 for row in rows for value in row.split(",")[1:])
