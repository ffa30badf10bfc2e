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
them is a contract change too.  They are pinned at ``meta.version`` 0.2.0
on an AVX-512 x86-64 machine with numpy 2.4.
"""

import hashlib

import pytest

from heisenpaths.cli import main

# name -> (argv, exit code, SHA-256 of manifest.txt and CSVs)
RUNS = {
    "verify-geometry": (
        ["verify", "geometry"],
        0, "7aa59529dc6ee9d797ec415128f26c3d14a2c8352d6793228848ca9683586ab3",
    ),
    "verify-operators": (
        ["verify", "operators"],
        0, "784f42f35506abd1687f849f70a0a221eb168008c85047ec4a5cf8d5f6884a28",
    ),
    "cayley": (
        ["experiment", "cayley", "paths=4196", "step=2e-3", "u_grid=0.1,0.3", "horizon_a=1"],
        0, "a26044343d5b606e8933b2db8dd686288a9155ead478440deed4792e45bb3647",
    ),
    "kelvin": (
        ["experiment", "kelvin", "paths=1000", "step=2e-3", "horizon_a=5"],
        1, "fa0aaedb4b599f7c7e8422d55473381b18285e70e78b4085a721827422761e5f",
    ),
    "tdist": (
        ["experiment", "tdist", "paths=2000", "step=2e-3", "ts=0,0.25,0.5"],
        0, "8a6cb7f3132742ec584ef1086f072c66b3ab253b3bf9a6796c1ea9691b4d5fb3",
    ),
    "tdist-absorbed": (
        ["experiment", "tdist", "paths=64", "step=5e-3", "pole_eps=0.05", "ts=0,1,4,16"],
        1, "bec92f7f11c5672b1c90b44eca7c1b8875c57f415903d16f527dbf99b7aaa6bf",
    ),
    "semigroup": (
        ["experiment", "semigroup", "paths=500", "step=5e-3", "t_grid=0.25"],
        0, "5dd73bc3a3822add86cefef8c766d1cc694f1e48cb03de27acabffcaedaf7ca9",
    ),
    "radial-h": (
        ["simulate", "radial-h", "paths=10", "horizon=0.05", "step=2e-3", "x0_r=0.3",
         "record=0,0.02,0.05"],
        0, "02b36c608a638b3787a4c6eb79b6689b9c2ec4d95b378a6c33d0569c0cce269f",
    ),
    "radial-s": (
        ["simulate", "radial-s", "paths=6", "horizon=0.02", "step=2e-3", "x0_r=0.7", "x0_t=1.0"],
        0, "e0e03e7b64010e3ba103e651ec10a38602ab444670806e6f0e56c6c2e489986b",
    ),
    "radial-s-equator": (
        ["simulate", "radial-s", "paths=8", "horizon=0.05", "step=2e-3", "x0_r=1.55", "x0_t=1.0"],
        0, "a60eac048cb74949b0a5b524b0c31ed5fd0dfd68f8c0102cca3da50d640f55fb",
    ),
    "radial-s-wrap": (
        ["simulate", "radial-s", "paths=8", "horizon=0.05", "step=2e-3", "x0_r=0.7", "x0_t=6.28"],
        0, "bc859f78c1df2429f9baa142c183ccef7798bc9bb47c51b94702392f56c2cc9c",
    ),
    "full-h": (
        ["simulate", "full-h", "n=2", "paths=4", "horizon=0.02", "step=2e-3"],
        0, "e8f6b341d2ce360d03ea75b844cd8217a30b5effcdf10f1ddbbe20fee6405664",
    ),
    "full-h-chunks": (
        ["simulate", "full-h", "n=2", "paths=1700", "horizon=0.05", "step=5e-3"],
        0, "c32cc318786f41510967dd48dba61fe9e096ea72db7945d8ca540721bf5c0c8b",
    ),
    "hproc": (
        ["simulate", "hproc", "paths=32", "horizon=1.0", "step=5e-3", "pole_eps=0.05",
         "x0_r=0.2", "x0_t=2.5", "record=0,0.5,1"],
        0, "5b2bfb4d8b90f4d60660436668ba3d1ae5f0a6d2c925ff8a65f3ce88ddc569b6",
    ),
    "hproc-chunks": (
        ["simulate", "hproc", "paths=1700", "horizon=1.0", "step=5e-3", "pole_eps=0.05",
         "x0_r=0.2", "x0_t=2.5"],
        0, "134eb3ffe531ea588bb1da791a9f87dda7067af64b94e6d182d86119e17742ce",
    ),
    "hproc-equator": (
        ["simulate", "hproc", "paths=8", "horizon=0.05", "step=2e-3", "x0_r=1.55", "x0_t=1.0"],
        0, "ef478e29e870f8d28305b8b16c06cbcdbe90bed042c57c05268d260ddb34f809",
    ),
    "hproc-wrap": (
        ["simulate", "hproc", "paths=8", "horizon=0.05", "step=2e-3", "x0_r=0.7", "x0_t=6.28"],
        0, "e81c2fbb61d1e4a6f5a2e4226db16cc162f6fb556ceb7c6d6c1bf637ee226435",
    ),
    "nproc": (
        ["simulate", "nproc", "paths=32", "horizon=1.0", "step=5e-3", "x0_r=0.3",
         "record=0.25,0.5,1"],
        0, "37f8350a7626a3e6d3adc68239506e7d21ac39d65d8f73eb5f4bc58cfe08acde",
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
