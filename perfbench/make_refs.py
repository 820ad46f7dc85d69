#!/usr/bin/env python3
"""Regenerate the stored correctness references under perfbench/refs.

Run from the repository root:

    python3 perfbench/make_refs.py

Only a deliberate change of the program's results should regenerate them.
The EOS reference compresses the report at 201 fixed times into the four
constants of its exact functional form (see `workloads.EosHardThermal`) and
fails if that form does not reproduce every reference row within the
stored tolerances.
"""
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from ffgas import (  # noqa: E402
    Grid, PropagatorConfig, Trajectory, build_ensemble, degeneracy_temperature,
    eos_report, ff_wavefunction, hard_wall, propagate)

REFS = Path(__file__).resolve().parent / "refs"
TRAJECTORY = {"L0": 1.0, "v_bar": 1.0, "T_FF": 1.0}
EOS_RTOL = 1e-12
# the Bernoulli residual cancels terms of size F_bar L ~ 1e12: its rounding
# error is a few ulps of that size, so the tolerance is ~180 ulps of it
BERNOULLI_RTOL = 4e-14


def eos_reference():
    conf = hard_wall()
    traj = Trajectory(**TRAJECTORY)
    N = 20_000
    T0 = 0.05 * degeneracy_temperature(conf, N, TRAJECTORY["L0"])
    times = np.linspace(0.0, traj.T_FF, 201)
    ens = build_ensemble(conf, N, T0, TRAJECTORY["L0"])
    recs = eos_report(conf, ens, traj, times)
    col = {c: np.array([getattr(r, c) for r in recs]) for c in
           ("L", "Ldot", "Lddot", "F_bar", "U_bar", "residual_poisson",
            "residual_bernoulli")}
    L, Ld, Ldd = col["L"], col["Ldot"], col["Lddot"]
    A = np.concatenate([np.stack([L**-3, Ldd], 1),
                        np.stack([0.5 * L**-2, Ld**2 - L * Ldd], 1)])
    (a, b), *_ = np.linalg.lstsq(
        A, np.concatenate([col["F_bar"], col["U_bar"]]), rcond=None)
    (r0, r1), *_ = np.linalg.lstsq(
        np.stack([np.ones_like(L), L**3 * Ldd], 1), col["residual_poisson"],
        rcond=None)
    F = a / L**3 + b * Ldd
    worst = {
        "F_bar": np.max(np.abs(col["F_bar"] - F) / np.abs(F)) / EOS_RTOL,
        "U_bar": np.max(np.abs(col["U_bar"] - (a / (2 * L**2) + b * (
            Ld**2 - L * Ldd)))) / np.min(np.abs(col["U_bar"])) / EOS_RTOL,
        "residual_poisson": np.max(np.abs(
            col["residual_poisson"] - (r0 + r1 * L**3 * Ldd))
            / np.abs(F * L**3)) / EOS_RTOL,
        "residual_bernoulli": np.max(np.abs(
            col["residual_bernoulli"] - r1 * (3 * L * Ldd - 2 * Ld**2))
            / np.abs(F * L)) / BERNOULLI_RTOL,
    }
    for key, share in worst.items():
        print(f"eos {key}: worst deviation {share:.3g} of its tolerance")
        if not share < 0.5:
            raise SystemExit(f"{key} does not fit the reference form")
    return {
        "notes": "F_bar = a/L^3 + b Lddot; U_bar = a/(2L^2) + "
                 "b(Ldot^2 - L Lddot); residual_poisson = r0 + r1 L^3 Lddot; "
                 "residual_bernoulli = r1 (3 L Lddot - 2 Ldot^2). rtol is "
                 "relative to F_bar, U_bar and F_bar L^3; bernoulli_rtol "
                 "relative to F_bar L.",
        "trajectory": TRAJECTORY, "N": N, "T0": T0,
        "a": float(a), "b": float(b), "r0": float(r0), "r1": float(r1),
        "rtol": EOS_RTOL, "bernoulli_rtol": BERNOULLI_RTOL,
    }


def propagate_reference():
    conf = hard_wall()
    traj = Trajectory(**TRAJECTORY)
    runs = {}
    for frame, points, dt in (("fixed", 2048, 2e-4), ("scaled", 1024, 1e-4)):
        for n in (1, 2, 3):
            if frame == "fixed":
                g = Grid.box(traj.L_final, points)
                psi0 = ff_wavefunction(conf, traj, n, 0.0, g).psi
            else:
                g = Grid.box(1.0, points)
                psi0 = (np.sqrt(2.0) * np.sin(np.pi * n * g.x)).astype(
                    np.complex128)
                psi0 /= g.norm(psi0)
            res = propagate(conf, traj, psi0, 0.0, traj.T_FF,
                            PropagatorConfig(dt=dt, grid=g, frame=frame),
                            track_n=n)
            lo = max(conf.n_min, n - (2 * n + 10) // 2)
            runs[f"{frame}_n{n}"] = {
                "fidelity": res.fidelity,
                "population": float(res.populations[n - lo]),
                "remainder": res.population_remainder,
                "norm_drift": res.norm_drift}
            print(f"propagate {frame} n={n}: {runs[f'{frame}_n{n}']}")
    return {"trajectory": TRAJECTORY, "runs": runs,
            "atol": {"fidelity": 1e-9, "population": 1e-9,
                     "remainder": 1e-9, "norm_drift": 1e-10}}


def main():
    REFS.mkdir(exist_ok=True)
    for name, ref in (("eos_hard_thermal", eos_reference()),
                      ("propagate_hard_frames", propagate_reference())):
        (REFS / f"{name}.json").write_text(json.dumps(ref, indent=1) + "\n",
                                           encoding="utf-8")


if __name__ == "__main__":
    main()
