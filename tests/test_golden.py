"""Golden output bytes: SHA-256 of ``manifest.txt`` plus every CSV for small
fixed runs of each verify, experiment and simulate command, at seed 1.

The pinned digests guard the reproducibility contract across refactors and
speed-ups of the simulators: a change that alters any of these bytes must
be declared (``meta.version`` bump, CHANGES.md entry) and the digests
re-pinned with it.  The runs are chosen to cover a partial final block
(``paths=4196``), levels that every path crosses well before ``horizon_a``
(cayley, kelvin preimage), a level that some paths never reach (kelvin
image), an absorbing ensemble that dies out before its horizon
(``tdist-absorbed``) and record times on every simulator.  The ``-equator``
runs start the sphere processes beyond the upper guard clip of the radial
coordinate (``x0_r=1.55``); the ``-wrap`` runs start the angle just below
``2*pi`` (``x0_t=6.28``), so it wraps in both directions.  The
``-chunks`` runs write 18,700 CSV rows, more than one formatting chunk
with a partial last one; the ``hproc`` one has absorbed and surviving
rows on both sides of each chunk boundary.  The two ``verify`` runs write
no CSV: they pin the manifest's config echo and check records, with every
tolerance at its default.  Digests depend
on numpy's Philox stream and on the platform's floating point; those of
runs through ``sim_hproc`` (cayley, tdist, semigroup, hproc) also depend on
whether ``np.tan`` runs on numpy's SIMD lanes.  A numpy upgrade that changes
them is a contract change too.  They are pinned at ``meta.version`` 0.3.0
on an AVX-512 x86-64 machine with numpy 2.4.
"""

import hashlib

import pytest

from heisenpaths.cli import main

# name -> (argv, exit code, SHA-256 of manifest.txt and CSVs)
RUNS = {
    "verify-geometry": (
        ["verify", "geometry"],
        0, "bc0fb4471db20ac64cd2ee164e3b99bb9fbe9490d17d89433a7ae7c110a2f282",
    ),
    "verify-operators": (
        ["verify", "operators"],
        0, "d06a9a8f29993906ee38b36dea9850568900a683d2acbaacc929aedde0cb0f92",
    ),
    "cayley": (
        ["experiment", "cayley", "paths=4196", "step=2e-3", "u_grid=0.1,0.3", "horizon_a=1"],
        0, "e42436f23744bce39c21baccd91385fc449f581f5a997d79eb1c249e2967eb41",
    ),
    "kelvin": (
        ["experiment", "kelvin", "paths=1000", "step=2e-3", "horizon_a=5"],
        1, "da7d8cd67051ed9ddfb96f529cc0c9443be8fa1d80a754a315a0d599c81cd855",
    ),
    "tdist": (
        ["experiment", "tdist", "paths=2000", "step=2e-3", "ts=0,0.25,0.5"],
        0, "cc0142fb330dc46590c270f4f5211efae1668dcb6f6737dae8fbcbb9b71b120c",
    ),
    "tdist-absorbed": (
        ["experiment", "tdist", "paths=64", "step=5e-3", "pole_eps=0.05", "ts=0,1,4,16"],
        1, "708cb42945d3f5f169f81696d9a4e5247b513c104b3623df7e8835c6116ac5a8",
    ),
    "semigroup": (
        ["experiment", "semigroup", "paths=500", "step=5e-3", "t_grid=0.25"],
        0, "26394aab28d09037eb76f01bdf087a07758bbc0fd367424ea732e65b9945457a",
    ),
    "radial-h": (
        ["simulate", "radial-h", "paths=10", "horizon=0.05", "step=2e-3", "x0_r=0.3",
         "record=0,0.02,0.05"],
        0, "188775e806be5d2d916bc9acec5b48b47e1ba497090454cd51fa17706921771b",
    ),
    "radial-s": (
        ["simulate", "radial-s", "paths=6", "horizon=0.02", "step=2e-3", "x0_r=0.7", "x0_t=1.0"],
        0, "0834f7ad65ba0dcf0d472fb1e9d20565983b4597cf9e06bb620b299413cb9a5c",
    ),
    "radial-s-equator": (
        ["simulate", "radial-s", "paths=8", "horizon=0.05", "step=2e-3", "x0_r=1.55", "x0_t=1.0"],
        0, "01140de386bf03d0695a35a168b56085388663ff3469ff59c1d365eeff74645b",
    ),
    "radial-s-wrap": (
        ["simulate", "radial-s", "paths=8", "horizon=0.05", "step=2e-3", "x0_r=0.7", "x0_t=6.28"],
        0, "6e79f70569b40fb9614788b179e8a1ee60c004aa52d47c475c8b668329b4544a",
    ),
    "full-h": (
        ["simulate", "full-h", "n=2", "paths=4", "horizon=0.02", "step=2e-3"],
        0, "9e5c59221be6dd88c60697d1136ee5ad38adfd29ca0d3f75e5836df7189a6217",
    ),
    "full-h-chunks": (
        ["simulate", "full-h", "n=2", "paths=1700", "horizon=0.05", "step=5e-3"],
        0, "b8760e1773f6b10080282ad81810a86a766451bbcca91192754205175063aa81",
    ),
    "hproc": (
        ["simulate", "hproc", "paths=32", "horizon=1.0", "step=5e-3", "pole_eps=0.05",
         "x0_r=0.2", "x0_t=2.5", "record=0,0.5,1"],
        0, "145adf2020958e67f10d30e0df93b90182f4739f550115b9db18fc4c819eded8",
    ),
    "hproc-chunks": (
        ["simulate", "hproc", "paths=1700", "horizon=1.0", "step=5e-3", "pole_eps=0.05",
         "x0_r=0.2", "x0_t=2.5"],
        0, "abf08c2b125419cf95c75f0a71294439b16d506e048e2628ebcd97e34025d1e0",
    ),
    "hproc-equator": (
        ["simulate", "hproc", "paths=8", "horizon=0.05", "step=2e-3", "x0_r=1.55", "x0_t=1.0"],
        0, "9503c0fd000f7700f5da7ec6937e49e42bc160d6e27d77a0f075447245199472",
    ),
    "hproc-wrap": (
        ["simulate", "hproc", "paths=8", "horizon=0.05", "step=2e-3", "x0_r=0.7", "x0_t=6.28"],
        0, "15efbf36bcb02b570348c1dd41023f85e2aa07fbdc9d568758e65817fd536c70",
    ),
    "nproc": (
        ["simulate", "nproc", "paths=32", "horizon=1.0", "step=5e-3", "x0_r=0.3",
         "record=0.25,0.5,1"],
        0, "64f73c9e30f618be3005754518715e889c7df9643e360d8138065bc105289a4e",
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
