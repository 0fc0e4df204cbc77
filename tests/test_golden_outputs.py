"""Golden digests of the bytes the command line writes.

Every change that promises the same outputs promises the same bytes, so the
reports are pinned here by their sha256: `galconf verify all -o <path>` at
seeds 42, 1 and 7, run in process through ``cli.main``.  A change that moves
bytes on purpose updates the digest in the same commit and names the moved
output in CHANGES.md.

The digests pin one environment: Python 3.11.7, numpy 2.4.6 with its bundled
OpenBLAS 0.3.31 (DYNAMIC_ARCH, so the gemm kernel follows the CPU; recorded
on an x86-64 Haswell-class kernel) and glibc 2.36's libm.  Another numpy, BLAS
kernel or libm may round a product or a pow differently and move a digest
without a defect here; a new environment re-records them in a change of its
own.
"""

import hashlib
import platform

import numpy as np
import pytest

from galconf.cli import main

VERIFY_ALL = {
    "42": "86d73e3fccf4081265d0151d4a21d3420793e512dbd45cc341c07683c531f4da",
    "1": "8082ea24a034d26d7881b6e42a157f35b4b4aad668f79c611d3d2de78e5739b2",
    "7": "f97a97b4ed30d395eef04c6203b57ebc9b7ed8592c260d0571fabb610f2b25d6",
}


@pytest.mark.parametrize("seed", sorted(VERIFY_ALL))
def test_verify_all_report_bytes(tmp_path, seed):
    out = tmp_path / "report.json"
    assert main(["verify", "all", "--seed", seed, "-o", str(out)]) == 0
    got = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == VERIFY_ALL[seed], (
        f"`verify all --seed {seed}` report bytes moved (sha256 {got}); pinned on Python "
        f"3.11.7 / numpy 2.4.6, running Python {platform.python_version()} / numpy "
        f"{np.__version__}")
