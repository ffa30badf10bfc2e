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
on numpy's Philox stream and on the platform's floating point; a numpy
upgrade that changes them is a contract change too.
"""

import hashlib

import pytest

from heisenpaths.cli import main

# name -> (argv, exit code, SHA-256 of manifest.txt and CSVs)
RUNS = {
    "verify-geometry": (
        ["verify", "geometry"],
        0, "b5c55be25c0dafb3c7fbc4248e323320bfff2e6464885242aa5e86c70273a953",
    ),
    "verify-operators": (
        ["verify", "operators"],
        0, "18150356ddaa0c31c68f29ae877823dcac2afee51bf644165fe573a35feb9018",
    ),
    "cayley": (
        ["experiment", "cayley", "paths=4196", "step=2e-3", "u_grid=0.1,0.3", "horizon_a=1"],
        0, "c007dc5508601340de50235288dfd45d72386efb69467e33c2532db74cd655e5",
    ),
    "kelvin": (
        ["experiment", "kelvin", "paths=1000", "step=2e-3", "horizon_a=5"],
        1, "2afe07589a4590893ef70939ea2dc1b43746b9fd1425ee662339f2811c63d66b",
    ),
    "tdist": (
        ["experiment", "tdist", "paths=2000", "step=2e-3", "ts=0,0.25,0.5"],
        0, "615f4db4d7a58e0f534e4ea0cd1eb64ed956be4d5cef30182e307e314154bdee",
    ),
    "tdist-absorbed": (
        ["experiment", "tdist", "paths=64", "step=5e-3", "pole_eps=0.05", "ts=0,1,4,16"],
        1, "457fb10866a40567b9cbbca561a2ad87a2531c796d79e7c50afcb06bae51533b",
    ),
    "semigroup": (
        ["experiment", "semigroup", "paths=500", "step=5e-3", "t_grid=0.25"],
        0, "467f380ac63a9662b60d9c77df6b0856762528f558da024a84eb476eb151894d",
    ),
    "radial-h": (
        ["simulate", "radial-h", "paths=10", "horizon=0.05", "step=2e-3", "x0_r=0.3",
         "record=0,0.02,0.05"],
        0, "2bcc1e99ee1c4d1d7fce30aac9daf945c8ace4cd469df5433ec70bba92d7376d",
    ),
    "radial-s": (
        ["simulate", "radial-s", "paths=6", "horizon=0.02", "step=2e-3", "x0_r=0.7", "x0_t=1.0"],
        0, "2bccb9a67baf58e597f28755b0c42b6c9791c3f1e13fb952a46a109450ff5fd5",
    ),
    "radial-s-equator": (
        ["simulate", "radial-s", "paths=8", "horizon=0.05", "step=2e-3", "x0_r=1.55", "x0_t=1.0"],
        0, "2c20cd2ce97dee554433a8ac21591deb06654230d1e4ed7ff5456947ba6aa527",
    ),
    "radial-s-wrap": (
        ["simulate", "radial-s", "paths=8", "horizon=0.05", "step=2e-3", "x0_r=0.7", "x0_t=6.28"],
        0, "887631236547bd3236b60acfe801038c630c2a126d6df9f94bab9ada4381d0b1",
    ),
    "full-h": (
        ["simulate", "full-h", "n=2", "paths=4", "horizon=0.02", "step=2e-3"],
        0, "6862c6dd68fb809209da605c3c75d50e0dd00083d7c58f5c97c28ac37738636c",
    ),
    "full-h-chunks": (
        ["simulate", "full-h", "n=2", "paths=1700", "horizon=0.05", "step=5e-3"],
        0, "64cc6c2a40f8089e882f62026cf003a62b64487279377335b54cf0205549dd63",
    ),
    "hproc": (
        ["simulate", "hproc", "paths=32", "horizon=1.0", "step=5e-3", "pole_eps=0.05",
         "x0_r=0.2", "x0_t=2.5", "record=0,0.5,1"],
        0, "eb50744f1cb8f2464789038c7af262ea33d919610be46905ff6437301dbb2ae5",
    ),
    "hproc-chunks": (
        ["simulate", "hproc", "paths=1700", "horizon=1.0", "step=5e-3", "pole_eps=0.05",
         "x0_r=0.2", "x0_t=2.5"],
        0, "7e8e8c1ab6124194131b994bb4099a5553176f1b55e8d7e480830f13e838a1a8",
    ),
    "hproc-equator": (
        ["simulate", "hproc", "paths=8", "horizon=0.05", "step=2e-3", "x0_r=1.55", "x0_t=1.0"],
        0, "1461a22a917021e75d40ca9f7cf9ba1667725088d4754db45bd0fd944a6eea7e",
    ),
    "hproc-wrap": (
        ["simulate", "hproc", "paths=8", "horizon=0.05", "step=2e-3", "x0_r=0.7", "x0_t=6.28"],
        0, "1aeedc492fe2450f2fcb05e9774641e371052e2c4f419a71bfc1ddce58f7582a",
    ),
    "nproc": (
        ["simulate", "nproc", "paths=32", "horizon=1.0", "step=5e-3", "x0_r=0.3",
         "record=0.25,0.5,1"],
        0, "84889d690e9e3f6facf9ba5631d339489ef2ce0608c272eb742443b90200812d",
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
