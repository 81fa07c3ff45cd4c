"""Write docs/closed_form_audit.json: the printed closed form audited against
the exponential propagator on the acceptance grid.

Run from the repository root after an editable install:

    python3 scripts/write_audit_artifact.py [output path]

The default output is the committed docs/closed_form_audit.json. Values are
deterministic; tests/test_acceptance.py rebuilds the file in a temporary
directory and requires it to equal the committed one byte for byte.
"""

import json
import sys
from pathlib import Path

from chargeqfi.dynamics import AUDIT_TOL, audit_analytic
from chargeqfi.model import SystemParams

GAMMAS = (0.3, 0.4, 0.5)
COUPLINGS = (0.05, 0.1, 0.2)
TIMES = (0.5, 1.0, 2.0, 5.0, 10.0)
DEFAULT_OUT = Path(__file__).resolve().parent.parent / "docs" / "closed_form_audit.json"


def build_artifact() -> dict:
    combos = []
    worst = None
    for g in GAMMAS:
        for e in COUPLINGS:
            p = SystemParams.degenerate(e_j=e, e_m=e, gamma=g)
            rep = audit_analytic(p, TIMES)
            entry = {
                "gamma": g,
                "coupling": e,
                "verdict": rep.verdict,
                "max_abs_deviation": rep.max_abs_deviation,
                "n_deviating_entries": len(rep.deviating_entries),
                "n_failures": len(rep.failures),
            }
            combos.append(entry)
            if worst is None or entry["max_abs_deviation"] > worst["max_abs_deviation"]:
                worst = entry
    return {
        "tolerance": AUDIT_TOL,
        "time_grid": list(TIMES),
        "combos": combos,
        "worst": worst,
    }


def main(argv) -> int:
    path = Path(argv[0]) if argv else DEFAULT_OUT
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(build_artifact(), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8", newline="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
