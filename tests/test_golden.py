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
on numpy's Philox stream and on the platform's floating point; those of
runs through ``sim_hproc`` (cayley, tdist, semigroup, hproc) also depend
on whether ``np.tan`` runs on numpy's SIMD lanes.  A numpy upgrade that
changes them is a contract change too.  They are pinned at
``meta.version`` 0.5.0 on an AVX-512 x86-64 machine with numpy 2.4.
"""

import hashlib

import pytest

from heisenpaths.cli import main

# name -> (argv, exit code, SHA-256 of manifest.txt and CSVs)
RUNS = {
    "verify-geometry": (
        ["verify", "geometry"],
        0, "ad9a3a2eb05a7617c93ab1e6b7f73bc8d82ec3b8b19796e0720ea8d3b39171a7",
    ),
    "verify-operators": (
        ["verify", "operators"],
        0, "dc9f8b7a6daf7dd051b9bbcfa366b68498e7c131d40823bb877790d5437b2116",
    ),
    "cayley": (
        ["experiment", "cayley", "paths=4196", "step=2e-3", "u_grid=0.1,0.3", "horizon_a=1"],
        0, "c1040a215bf948a968308bf22df8623048b23a6b79adda9cd756fd5ee9a8f6b2",
    ),
    "kelvin": (
        ["experiment", "kelvin", "paths=1000", "step=2e-3", "horizon_a=5"],
        1, "7cbb6c7da3492a0c65ace2ec87ddc9e0a926ca13e1397d811bc4b1fd7cf39335",
    ),
    "tdist": (
        ["experiment", "tdist", "paths=2000", "step=2e-3", "ts=0,0.25,0.5"],
        0, "308b94961402d2e4949f65a89fabe279b3ff483cb3b2ad9f11c270df293025c7",
    ),
    "tdist-absorbed": (
        ["experiment", "tdist", "paths=64", "step=5e-3", "pole_eps=0.05", "ts=0,1,4,16"],
        1, "825a55ce8442046e03a90319e902a7dcb3ff91fc079f7fb9870fe7668fbc9f24",
    ),
    "semigroup": (
        ["experiment", "semigroup", "paths=500", "step=5e-3", "t_grid=0.25"],
        0, "54498be4a12c0d17130792a711f16b360d44f56fc97b837afeffbd8e8da3d0a1",
    ),
    "semigroup-n2-times": (
        ["experiment", "semigroup", "n=2", "paths=500", "step=5e-3", "t_grid=0.5,0.25", "tn=0.25",
         "x0_r=0.3", "x0_t=1.0", "xn_r=0.8", "xn_t=0.5"],
        0, "38fb0602c35e225e864b789681ddc7cac6ce0ffe9cf0e1858887d736c88f764b",
    ),
    "radial-h": (
        ["simulate", "radial-h", "paths=10", "horizon=0.05", "step=2e-3", "x0_r=0.3",
         "record=0,0.02,0.05"],
        0, "eb9b1d1ee910dda8ca809c2aa8ac8e134ffd6298d536d2d09c31a24bac980f19",
    ),
    "radial-s": (
        ["simulate", "radial-s", "paths=6", "horizon=0.02", "step=2e-3", "x0_r=0.7", "x0_t=1.0"],
        0, "517b3c1eda5720772339984037e46d2deb3df26e14d7f13b3e2c9f6c934fa64a",
    ),
    "radial-s-equator": (
        ["simulate", "radial-s", "paths=8", "horizon=0.05", "step=2e-3", "x0_r=1.55", "x0_t=1.0"],
        0, "4beae7259751901ef51bad6291f17f02a81aad7faefae1de9df6cdf983b79b94",
    ),
    "radial-s-wrap": (
        ["simulate", "radial-s", "paths=8", "horizon=0.05", "step=2e-3", "x0_r=0.7", "x0_t=6.28"],
        0, "31daade30e8e67af889b6c736a696ea568f853d07b919d28fc1d79f4e60274e1",
    ),
    "full-h": (
        ["simulate", "full-h", "n=2", "paths=4", "horizon=0.02", "step=2e-3"],
        0, "6cdbaa7a45d99cdb4426de8378a44e9bf067f4a5e51cb0263a85560a34782d95",
    ),
    "full-h-chunks": (
        ["simulate", "full-h", "n=2", "paths=1700", "horizon=0.05", "step=5e-3"],
        0, "024804fe0ffc822193ae2a96ab71879cd8de54c0c7ad2848be8bada87695b355",
    ),
    "hproc": (
        ["simulate", "hproc", "paths=32", "horizon=1.0", "step=5e-3", "pole_eps=0.05",
         "x0_r=0.2", "x0_t=2.5", "record=0,0.5,1"],
        0, "f8b418356fb09043388ede99075827d321371fb1b3d814b9986059bc44664167",
    ),
    "hproc-chunks": (
        ["simulate", "hproc", "paths=1700", "horizon=1.0", "step=5e-3", "pole_eps=0.05",
         "x0_r=0.2", "x0_t=2.5"],
        0, "a6e0dffc4779c86538f6a0e20c93d8ab84762044d1a6e459954a981d2b3a5888",
    ),
    "hproc-equator": (
        ["simulate", "hproc", "paths=8", "horizon=0.05", "step=2e-3", "x0_r=1.55", "x0_t=1.0"],
        0, "66b31322fa25aa806a93d6d438ba997425c0ac69f24a26f14de0716ec5408387",
    ),
    "hproc-wrap": (
        ["simulate", "hproc", "paths=8", "horizon=0.05", "step=2e-3", "x0_r=0.7", "x0_t=6.28"],
        0, "9756901258f2ce6e5331fa5ebbf6db4f8ceb6c7b1a6f688f4377e03046f9a9af",
    ),
    "nproc": (
        ["simulate", "nproc", "paths=32", "horizon=1.0", "step=5e-3", "x0_r=0.3",
         "record=0.25,0.5,1"],
        0, "0eff89722dcbdda8cbdf2a4de03254809a5ce1480068a4f4002293040ab5003a",
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
