"""Recompute the golden values frozen in the test suite.

Run from the repository root after an editable install:

    python3 scripts/regen_goldens.py

Prints the SLD values for tests/test_qfi.py::SLD_GOLDENS, the reference
breakdown for test_breakdown_reference_point, and the printed-eigensystem
constants for tests/test_spectral.py. Values are deterministic; if they move
beyond the stated tolerances, something in the numerics changed.
"""

import numpy as np

from chargeqfi.dynamics import analytic_eigensystem
from chargeqfi.model import SystemParams
from chargeqfi.qfi import EstimandTag, qfi_components, qfi_sld

TAGS = (EstimandTag.GAMMA, EstimandTag.EJ, EstimandTag.EM)


def main():
    print("SLD_GOLDENS (gamma = 0.4):")
    for e, t in ((0.05, 1.0), (0.1, 5.0), (0.2, 1.0)):
        p = SystemParams.degenerate(e_j=e, e_m=e, gamma=0.4)
        vals = ", ".join(f'"{tag.value}": {float(qfi_sld(p, t, tag))!r}' for tag in TAGS)
        print(f"    ({e}, {t}): {{{vals}}},")

    p = SystemParams.degenerate(e_j=0.1, e_m=0.1, gamma=0.4)
    b = qfi_components(p, 2.0, EstimandTag.GAMMA)
    print("\nreference breakdown (e=0.1, gamma=0.4, t=2, estimand gamma):")
    for name in ("f_total", "f_c", "f_p", "f_m", "crb"):
        print(f"    {name} = {float(getattr(b, name))!r}")
    print(f"    gauge_residual = {b.gauge_residual:.3e}")

    eig = analytic_eigensystem(p, 2.0)
    v = eig.eigenvectors
    print("\nprinted eigensystem at the same point:")
    print(f"    eigenvalues = {[float(x) for x in eig.eigenvalues]!r}")
    print(f"    sum - 1     = {float(eig.eigenvalues.sum()) - 1.0!r}")
    print(f"    theta       = {eig.structure.theta!r}")
    print(f"    <V3|V4>     = {float(np.vdot(v[:, 2], v[:, 3]).real)!r}")


if __name__ == "__main__":
    main()
