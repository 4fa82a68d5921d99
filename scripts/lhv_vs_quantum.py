#!/usr/bin/env python3
"""Quantum CHSH maximum versus local hidden-variable baselines.

For a ladder of entanglement degrees, prints the closed-form quantum maximum
at the optimal analyzer quadruple next to Monte Carlo CHSH values of the two
built-in local models evaluated at the same quadruple.  The local values
never leave the classical interval [0, 2]; the quantum column exceeds 2 for
every entangled state.
"""
import argparse

from belllab import BUILTIN_MODELS, canonical_coefficients, chsh_lhv, gisin_settings, max_violation


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=500_000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    names = sorted(BUILTIN_MODELS)
    header = f"{'C':>6} {'quantum':>9} " + " ".join(f"{n:>18}" for n in names)
    print(header)
    for conc in (1.0, 0.9, 0.8, 8.0 / 11.0, 0.5, 0.25):
        c1, c2 = canonical_coefficients(conc)
        settings = gisin_settings(c1, c2)
        row = [f"{conc:6.3f}", f"{max_violation(c1, c2):9.5f}"]
        for name in names:
            est = chsh_lhv(BUILTIN_MODELS[name](), settings, args.samples, args.seed)
            row.append(f"{est.value:9.5f} +- {est.std_error:.4f}")
        print(" ".join(row))


if __name__ == "__main__":
    main()
