"""Golden output bytes: SHA-256 of ``manifest.txt`` plus every CSV for small
fixed runs of each verify, experiment and simulate command, at seed 1.

The pinned digests guard the reproducibility contract across refactors
and speed-ups of the simulators: a change that alters any of these bytes
must be declared (``meta.version`` bump, CHANGES.md entry) and the
digests re-pinned with it.  The runs are chosen to cover a partial final
block (``paths=4196``), levels that every path crosses well before
``horizon_a`` (cayley, kelvin preimage), a level that some paths never
reach (kelvin image), an absorbing ensemble that dies out before its
horizon (``tdist-absorbed``), a semigroup run at n=2 whose two times
come unsorted, from starts off the origin (``semigroup-n2-times``, which
tells apart the record slots of one run), and record times on every
simulator.  The ``-equator`` runs start the sphere processes beyond the
upper guard clip of the radial coordinate (``x0_r=1.55``); the ``-wrap``
runs start the angle just below ``2*pi`` (``x0_t=6.28``), so it wraps in
both directions.  The ``-chunks`` runs write 18,700 CSV rows, more than
one formatting chunk with a partial last one; the ``hproc`` one has
absorbed and surviving rows on both sides of each chunk boundary.  The
two ``verify`` runs write no CSV: they pin the manifest's config echo
and check records, with every tolerance at its default.  Digests depend
on numpy's Philox stream and on the platform's floating point.  Every
stochastic one also depends on whether ``np.log`` and ``np.tan`` run on
numpy's SIMD lanes, since each normal is a Box-Muller transform of raw
Philox words through them; those of runs through ``sim_hproc`` (cayley,
tdist, semigroup, hproc) use ``np.tan`` in each step as well.  A numpy
upgrade that changes them is a contract change too.  They are pinned at
``meta.version`` 0.6.0 on an AVX-512 x86-64 machine with numpy 2.4.
"""

import hashlib

import pytest

from heisenpaths.cli import main

# name -> (argv, exit code, SHA-256 of manifest.txt and CSVs)
RUNS = {
    "verify-geometry": (
        ["verify", "geometry"],
        0, "8b062968c57e2f668820423f14875face78ac7c0de2cefd8e75b567d2c7115e9",
    ),
    "verify-operators": (
        ["verify", "operators"],
        0, "8d13c0f58a066cfd3148aa01eb632cd80d9a65ae4f4e4d6ddbaa9220a0810230",
    ),
    "cayley": (
        ["experiment", "cayley", "paths=4196", "step=2e-3", "u_grid=0.1,0.3", "horizon_a=1"],
        0, "1ede14b1fc27b708a526d1ebf5e5d96ae0a9690ec523e92fd72d29f2970e38f3",
    ),
    "kelvin": (
        ["experiment", "kelvin", "paths=1000", "step=2e-3", "horizon_a=5"],
        1, "fb801f3efe2cb002a869038df44b0119bcd494470cd7fa76e40f9050ef7407bc",
    ),
    "tdist": (
        ["experiment", "tdist", "paths=2000", "step=2e-3", "ts=0,0.25,0.5"],
        0, "ef06248e50840ff8f112922276cbe66f84bf5b8e4ee495e7876011e9c3617a8d",
    ),
    "tdist-absorbed": (
        ["experiment", "tdist", "paths=64", "step=5e-3", "pole_eps=0.05", "ts=0,1,4,16"],
        1, "4403589621b1f7fa0ed81d33a6c6b19ba47274bbb13951e26641e0f3e8e3403a",
    ),
    "semigroup": (
        ["experiment", "semigroup", "paths=500", "step=5e-3", "t_grid=0.25"],
        0, "8329b36c3d65d1289beab3dd265a3436b33742c0c3547732ad10ce4fc7d311cd",
    ),
    "semigroup-n2-times": (
        ["experiment", "semigroup", "n=2", "paths=500", "step=5e-3", "t_grid=0.5,0.25", "tn=0.25",
         "x0_r=0.3", "x0_t=1.0", "xn_r=0.8", "xn_t=0.5"],
        0, "e923882835fc463373dd9f7f66f0d5cb9f288300958dfa72f5f20f031a47e800",
    ),
    "radial-h": (
        ["simulate", "radial-h", "paths=10", "horizon=0.05", "step=2e-3", "x0_r=0.3",
         "record=0,0.02,0.05"],
        0, "752484e1f76115c932026c67c56997a743e4059ca7934c96371a9a931ed2a30f",
    ),
    "radial-s": (
        ["simulate", "radial-s", "paths=6", "horizon=0.02", "step=2e-3", "x0_r=0.7", "x0_t=1.0"],
        0, "15efbf993084e00a208f3eaa46cb5894a4ce23d462be78c6851687ccba95cf90",
    ),
    "radial-s-equator": (
        ["simulate", "radial-s", "paths=8", "horizon=0.05", "step=2e-3", "x0_r=1.55", "x0_t=1.0"],
        0, "ff4a52397425c83f14249ca43f832092d1aa29ff245358912417839a4f12bc3a",
    ),
    "radial-s-wrap": (
        ["simulate", "radial-s", "paths=8", "horizon=0.05", "step=2e-3", "x0_r=0.7", "x0_t=6.28"],
        0, "3ffed0fc23c256df2d75b5d2f00d0841724cc5d3a60e9d5f64af15403c22dc9f",
    ),
    "full-h": (
        ["simulate", "full-h", "n=2", "paths=4", "horizon=0.02", "step=2e-3"],
        0, "b2fe4746079a67452716559cda92ac00be89cba7496bab15231a6ab2f0a8ed1e",
    ),
    "full-h-chunks": (
        ["simulate", "full-h", "n=2", "paths=1700", "horizon=0.05", "step=5e-3"],
        0, "321463903e503c44ae14aae8fd19d6a6319c818c398205394b1f0e9e98c637c7",
    ),
    "hproc": (
        ["simulate", "hproc", "paths=32", "horizon=1.0", "step=5e-3", "pole_eps=0.05",
         "x0_r=0.2", "x0_t=2.5", "record=0,0.5,1"],
        0, "3b3614a70564dd5c804cc17d5f56942c7a9ace9addef088e3d74b38427bea693",
    ),
    "hproc-chunks": (
        ["simulate", "hproc", "paths=1700", "horizon=1.0", "step=5e-3", "pole_eps=0.05",
         "x0_r=0.2", "x0_t=2.5"],
        0, "6cffa0ff49b101c08a6d5d025b9fe148d13f7ea6182e82ea3f65d4430c20896a",
    ),
    "hproc-equator": (
        ["simulate", "hproc", "paths=8", "horizon=0.05", "step=2e-3", "x0_r=1.55", "x0_t=1.0"],
        0, "721cf29d3bf9902cf08a3e62e7526405dafa7efcc4f3d51280abb11329fbd751",
    ),
    "hproc-wrap": (
        ["simulate", "hproc", "paths=8", "horizon=0.05", "step=2e-3", "x0_r=0.7", "x0_t=6.28"],
        0, "0824f62c6a1585cee04f0264e4d3a17227d0e353eb47b15d475af4e58c376848",
    ),
    "nproc": (
        ["simulate", "nproc", "paths=32", "horizon=1.0", "step=5e-3", "x0_r=0.3",
         "record=0.25,0.5,1"],
        0, "720ef6b4d85672acbf053200d68b5ffacfe758c10b1661f27f85bffe942e8a83",
    ),
}


def output_digest(out) -> str:
    """SHA-256 over every output file except ``run.log``, names included,
    in name order."""
    h = hashlib.sha256()
    for p in sorted(out.iterdir()):
        if p.name != "run.log":
            h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_bytes(name, tmp_path):
    argv, code, digest = RUNS[name]
    out = tmp_path / name
    assert main(argv + ["--seed", "1", "--out", str(out)]) == code
    assert output_digest(out) == digest
