"""Write the figure_time reference values that the benchmark's gate checks.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py

Evaluates the fig1a, fig3a and fig5a presets (201 points per curve) and
stores t, f_total, f_c, f_p, f_m and sld for every point in
perfbench/reference/figure_time.json. Regenerate only on purpose: the file
pins the values the benchmark accepts, so a rewrite moves the gate.
"""

import json

from chargeqfi.sweeps import figure_dataset

from workloads import FIGURE_IDS, FIGURE_POINTS, REFERENCE_FIELDS, REFERENCE_FILE


def main():
    out = {}
    for fig in FIGURE_IDS:
        out[fig] = {}
        for label, result in figure_dataset(fig, points=FIGURE_POINTS, parallelism=1):
            out[fig][label] = [
                [row.axis_value, row.breakdown.f_total, row.breakdown.f_c,
                 row.breakdown.f_p, row.breakdown.f_m, row.sld]
                for row in result.rows]
    REFERENCE_FILE.parent.mkdir(parents=True, exist_ok=True)
    REFERENCE_FILE.write_text(json.dumps({"fields": REFERENCE_FIELDS, "figures": out},
                                         separators=(",", ":")) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
