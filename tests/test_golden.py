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
``meta.version`` 0.4.0 on an AVX-512 x86-64 machine with numpy 2.4.
"""

import hashlib

import pytest

from heisenpaths.cli import main

# name -> (argv, exit code, SHA-256 of manifest.txt and CSVs)
RUNS = {
    "verify-geometry": (
        ["verify", "geometry"],
        0, "75d5bfd8e080e316a0f36f8e24c61cf7c55364ba17ce574319b3da96c24648b2",
    ),
    "verify-operators": (
        ["verify", "operators"],
        0, "72bdc14f30eb4c69d5f6605cd0d39b8e58fc0fc167b3bee617a7555784e8afc2",
    ),
    "cayley": (
        ["experiment", "cayley", "paths=4196", "step=2e-3", "u_grid=0.1,0.3", "horizon_a=1"],
        0, "aa8d98432b121268e57b9efd3c09f024bac384c7558e96834efde839b1d93450",
    ),
    "kelvin": (
        ["experiment", "kelvin", "paths=1000", "step=2e-3", "horizon_a=5"],
        1, "d179fbe774fdb341fe024e65a51554405f1e1898dd01e4297044f619e556873e",
    ),
    "tdist": (
        ["experiment", "tdist", "paths=2000", "step=2e-3", "ts=0,0.25,0.5"],
        0, "ab4d469c17aaea687611d12d2e14647368643c510477cf92906a1b6284ab5403",
    ),
    "tdist-absorbed": (
        ["experiment", "tdist", "paths=64", "step=5e-3", "pole_eps=0.05", "ts=0,1,4,16"],
        1, "24abb833a6ba0c4b34a5bb3d5f5a9a8089179817dda051d90a184760d0f0547f",
    ),
    "semigroup": (
        ["experiment", "semigroup", "paths=500", "step=5e-3", "t_grid=0.25"],
        0, "9c9ab9c4905cd3b64e04ecbdf0d5d2afe93c6c6e4f30111e9ec44b6ce54ced76",
    ),
    "semigroup-n2-times": (
        ["experiment", "semigroup", "n=2", "paths=500", "step=5e-3", "t_grid=0.5,0.25", "tn=0.25",
         "x0_r=0.3", "x0_t=1.0", "xn_r=0.8", "xn_t=0.5"],
        0, "07bf3f43904b3c4e067e9aa8d817b9799f6d2123ef491b620d4cf6227d69f8c7",
    ),
    "radial-h": (
        ["simulate", "radial-h", "paths=10", "horizon=0.05", "step=2e-3", "x0_r=0.3",
         "record=0,0.02,0.05"],
        0, "6290dc786ce09299fe4be38e337f6e7be18f1cc7664234d91e3fa2f6475c1815",
    ),
    "radial-s": (
        ["simulate", "radial-s", "paths=6", "horizon=0.02", "step=2e-3", "x0_r=0.7", "x0_t=1.0"],
        0, "d0cf9e4244d6b36a4beaca36c98d839fafaad84c830515ac0564315d4558acd9",
    ),
    "radial-s-equator": (
        ["simulate", "radial-s", "paths=8", "horizon=0.05", "step=2e-3", "x0_r=1.55", "x0_t=1.0"],
        0, "e3cdeb8f9d94c2c45b4dcb603d1a1f03f90360bea822f61c97b7d7c25f772939",
    ),
    "radial-s-wrap": (
        ["simulate", "radial-s", "paths=8", "horizon=0.05", "step=2e-3", "x0_r=0.7", "x0_t=6.28"],
        0, "44e2775b838886a245546ffdc27f136322c9c2225016aa1d1038c73148dce9c5",
    ),
    "full-h": (
        ["simulate", "full-h", "n=2", "paths=4", "horizon=0.02", "step=2e-3"],
        0, "ee79b7e906a01d6d96c99e6b4d0cb55adab6a30b638b892ad298d2859243bc33",
    ),
    "full-h-chunks": (
        ["simulate", "full-h", "n=2", "paths=1700", "horizon=0.05", "step=5e-3"],
        0, "bbde2ce78345dfa1cc6b556f63f8de41ebbfcf7e4f8da56d73e4d04a0df6bd1e",
    ),
    "hproc": (
        ["simulate", "hproc", "paths=32", "horizon=1.0", "step=5e-3", "pole_eps=0.05",
         "x0_r=0.2", "x0_t=2.5", "record=0,0.5,1"],
        0, "16d931a5cf2128a3087ef387e8faa0888c436e425f2daa50fdbfb38ed6a5ec6c",
    ),
    "hproc-chunks": (
        ["simulate", "hproc", "paths=1700", "horizon=1.0", "step=5e-3", "pole_eps=0.05",
         "x0_r=0.2", "x0_t=2.5"],
        0, "eed97593fdf9c7e6db865ca436ad780aa5ee47b525d2312c040d6a267cc08fe0",
    ),
    "hproc-equator": (
        ["simulate", "hproc", "paths=8", "horizon=0.05", "step=2e-3", "x0_r=1.55", "x0_t=1.0"],
        0, "cb98a844587116bd87ac510d02480c454020a2b1d27cbedaa5e492dd55c27be7",
    ),
    "hproc-wrap": (
        ["simulate", "hproc", "paths=8", "horizon=0.05", "step=2e-3", "x0_r=0.7", "x0_t=6.28"],
        0, "737dfe99913cf7cc56398e6240888212cdd7c36b4d567addf681884af29e3df2",
    ),
    "nproc": (
        ["simulate", "nproc", "paths=32", "horizon=1.0", "step=5e-3", "x0_r=0.3",
         "record=0.25,0.5,1"],
        0, "fde3ac7b37f18542c5959d9f9ddcef9fc8cb7c8b8ea18a2400116e3560ca875a",
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
