"""One-time spectral calibration: measure the gap-law envelopes on the
reference (T, mu) grid and print the constants frozen in
``omegaphase/calibration.py``.

Run from the repository root::

    python scripts/calibrate.py

The printed bands include the safety margin conventions used when the
constants were frozen; update calibration.py by hand if the model or the
grid ever changes.
"""

import math

from omegaphase.clock import gap_law_grid


def main() -> None:
    t_values = sorted(set(list(range(2, 65)) + [96, 128, 192, 256]))
    mu_values = [round(0.05 * k, 2) for k in range(1, 20)]
    rows = gap_law_grid(t_values, mu_values)
    ratios = [r["gap_ratio"] for r in rows]
    scaled = [r["k0_scaled"] for r in rows]
    print(f"grid points: {len(rows)}")
    print(f"lambda0*T^2/(1-epsilon): [{min(ratios):.4f}, {max(ratios):.4f}]")
    print(f"k0*T/sqrt(mu):           [{min(scaled):.4f}, {max(scaled):.4f}]")
    print()
    print("suggested frozen constants (margins rounded outward):")
    print(f"  GAP_RATIO_BAND = ({math.floor(min(ratios) * 10) / 10:.2f}, "
          f"{math.ceil(max(ratios) * 10) / 10:.2f})")
    print(f"  K0_SCALED_BAND = ({math.floor(min(scaled) * 20) / 20:.2f}, "
          f"{math.ceil(max(scaled) * 20) / 20:.2f})")
    print("  COMP_UPPER_K   = Fraction(3)  # covers the large-T, mu->1 limit pi^2/4")


if __name__ == "__main__":
    main()
