"""The artifact bytes of every shipped preset, pinned by sha256.

A change that moves an artifact byte has to say which bytes moved and why;
this test makes that visible.  The table was pinned with Python 3.11.7 and
numpy 2.4.6.  Float artifacts follow numpy's kernels, so under another numpy
the test is skipped rather than failed.  After a deliberate artifact change,
re-pin the table from a fresh run of every preset and name the moved files
in the change log.
"""

import hashlib

import numpy as np
import pytest

from horolab.harness import list_presets

PINNED_NUMPY = "2.4.6"

# "<preset>/<file>": sha256 of the file's bytes
PINNED = {
    "acceptance-01/identities.csv":
        "be7ed4d198e332a0633d696212f51b77cc57e92b3da886d4b5027f353b2ff8d6",
    "acceptance-01/manifest.json":
        "bc5968e6c2fb8ec95066d3831f8188b4760086e9a7d557ba8973d6cccc0d8c45",
    "acceptance-01/summary.json":
        "1431a4d8761b8c87c8dae90af6e77031ab53b493129014c4d444a9f56b4e67b2",
    "acceptance-02/fuzz.csv":
        "8ce5086278d1f7851be981d81d7dfa6f17c1f788acdc310910838faa294fb7d3",
    "acceptance-02/manifest.json":
        "a6ff02f1d97df0ec37b6a3dc99fa29463f799dce077bb8b2cbcbad0682c9a696",
    "acceptance-02/summary.json":
        "6be5a48538ec362f479b774351ac4440401978ecde22038ed7f7440b21f3382d",
    "acceptance-03/manifest.json":
        "f286124916c4fd5e9d49fbfe2a78bdfd76d271da38243d8f5ed898af9125e848",
    "acceptance-03/sl2.csv":
        "bf2727483cc2d04e2ebd65090920b3155a375b020fc8d61be2c0c1c4d53b6c1d",
    "acceptance-03/summary.json":
        "bb8e0f411c955530d899364d0b997d6eada02193fc92d023e20eb1a99d3f13c7",
    "acceptance-04/manifest.json":
        "b67a7c01af6bf1de3272b4a02b75499ccb369d6daa01eb14479a10cc3c68bb0c",
    "acceptance-04/summary.json":
        "2723bcf01cc376064f9509eab0f5cb0176edc48f6c921aa93e5df1a15b457782",
    "acceptance-04/vandermonde.csv":
        "298b97109f1dedf33b93426d622e4d4deea61b1425281c0bb82d154053de2506",
    "acceptance-05/expansion.csv":
        "7c1ad1e52aaa1b39f5d134cd0578fc85e6a99593c67720128a78a1cdb6775f36",
    "acceptance-05/manifest.json":
        "050ffeccd68e54bf38fa32024b3aaebcdc02b3b87e3206abc5d383cdb001742b",
    "acceptance-05/summary.json":
        "33611f9d10b806a81905b38cd1a3318dccba02c240323f688fb0d02ffcc03884",
    "acceptance-06/bounded_fixed.csv":
        "09bf7e8631a9d83817edffaa174e45be806374538bbfe87ef78050ab03d57f7f",
    "acceptance-06/manifest.json":
        "1f1eb69070a50ecf28b8a6e6e875ffece58e9dd45759e1ce61185c8c32adebb0",
    "acceptance-06/summary.json":
        "92a7bd2dc5c94ce9a6764b49124404f502d1d0f7361a27a68b4e99099482effc",
    "acceptance-07/manifest.json":
        "cb1cf7e52cdc7357080b2da24f0d2f6924f80fabada6dd6d0ec4be77cff30f58",
    "acceptance-07/qfixed.csv":
        "a78f05931e266179a434b6b37b4a31079ec887ad2912f337dbb4d72ab3768bb8",
    "acceptance-07/summary.json":
        "8e6b868b463efe925818dfa70524bdf28d553439c1b0bb630ddeb0642b9dc786",
    "acceptance-08/distributions.csv":
        "c6759e42c8ad4ce5e2dd8b43cc83cf270c467d1539eaa2a8a3967c360233aee3",
    "acceptance-08/ks.csv":
        "2ed614af3124234dc0298bca6fb4d696f2a1f7d23af09483f10caa2c19b844d2",
    "acceptance-08/manifest.json":
        "4b944368dd466ed8eb34c6ce1be37dc910944389866b0fdb313e449d26feba9b",
    "acceptance-08/summary.json":
        "ead435a3190b6bc2fdad8f3d3703561a65bef4379d24a4f43681109f4f35f44d",
    "acceptance-09/escape.csv":
        "64911e8bd62d519499fb6a11a342f35a4f5f04a2b86461a326009b557c8e5513",
    "acceptance-09/manifest.json":
        "b8d7bae16d56163a52c2a8df559b771cb44268080a7e8d2f536ec9ab90ac592c",
    "acceptance-09/summary.json":
        "331bb370f1bbb66efaf0a0dc2501ae724cdeb2be9dfa53d625e7883952fe7dc0",
    "acceptance-10/dirichlet_queries.csv":
        "edac8eb5d47c8214dbdafed9fdd67c6fc43049c2d2d9626f0f3fdffb3845bb6b",
    "acceptance-10/dirichlet_scan.csv":
        "3cb63c5341af00aa0eb99c99589e0f7ae3d8acd30a36651eb5c958ab0bf45c79",
    "acceptance-10/manifest.json":
        "68d9b6dd550944dda9b58dc90a99e8740c5823ca7b49f31fad78e092279665a7",
    # re-pinned when its counts gained primal_confirmed and primal_python_int
    "acceptance-10/summary.json":
        "31c9b3f33739888e38bde66c5961ab5e474868eb43e4d0eb4f12ccd2f544a4e6",
    "curve-frames-demo/curve_frames.csv":
        "bc85bc922bb42062ceb2544dc86a9919f74372ebdecea35017be5e2a27cdee17",
    "curve-frames-demo/manifest.json":
        "f43bf1ac96fc07217b62e12d9de3a69ef1152084dde8c2daed1ac8552189ded7",
    "curve-frames-demo/summary.json":
        "c466d828064a6480da143c506183d76404269d8bbe37e9bc93d24675cc6c6283",
}


@pytest.mark.skipif(np.__version__ != PINNED_NUMPY,
                    reason=f"hashes pinned with numpy {PINNED_NUMPY}, "
                           f"running numpy {np.__version__}")
def test_preset_artifacts_match_the_pinned_hashes(preset_run):
    got = {}
    for name, _ in list_presets():
        outcome, _ = preset_run(name)
        for path in sorted(outcome.artifact_dir.iterdir()):
            got[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert sorted(got) == sorted(PINNED)
    moved = sorted(key for key in PINNED if got[key] != PINNED[key])
    assert not moved, f"artifact bytes changed: {moved}"
