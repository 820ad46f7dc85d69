"""Which ffgas attributes the traced run wraps, and the per-layer metrics.

Layers are the package's modules. A function imported by name into another
module is looked up there, so it is wrapped at every site its callers use
(``ffgas.verify.propagate`` and ``ffgas.tdse.propagate`` are one function
seen from two modules). Counts are read from call arguments and results.

`baseline_table` times the rows of the ROADMAP baseline table at their
fixed sizes, so one traced run regenerates that table.
"""
from __future__ import annotations

import time

import numpy as np

import ffgas.cli as cli
import ffgas.config as config
import ffgas.fastforward as fastforward
import ffgas.kernels as kernels
import ffgas.observables as observables
import ffgas.spectra as spectra
import ffgas.statmech as statmech
import ffgas.tdse as tdse
import ffgas.trajectory as trajectory
import ffgas.verify as verify
from spans import Patch

CHECK_IDS = ("c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8a", "c8b", "c8c",
             "c9")


def _cn_points(args, kwargs, result):
    # (psi, x, dt, hbar, mass, per-step coefficients, ...)
    return {"cn_point_steps": np.size(args[1]) * np.size(args[5])}


def _cn_scaled_points(args, kwargs, result):
    return {"cn_scaled_point_steps": np.size(args[1]) * np.size(args[5])}


def _hermite(args, kwargs, result):
    # (xi, n): n recurrence orders over every point, one level returned
    n = int(args[1])
    return {"hermite_point_orders": np.size(args[0]) * n,
            "hermite_orders": n, "hermite_levels": 1}


def _levels_kept(args, kwargs, result):
    return {"levels_kept": result.levels.size}


def _eos_samples(args, kwargs, result):
    return {"eos_samples": len(result)}


def _level_terms(args, kwargs, result):
    # (conf, n, k): n is one quantum number or an array of them
    return {"level_terms": np.size(args[1])}


def patches():
    """Every wrapped attribute, grouped by the layer that owns the function."""
    P = Patch
    return [
        P(cli, "main", "cli.main"),
        P(cli, "load_config", "config.load"),
        P(config, "load_config", "config.load"),
        P(verify, "run_all", "verify.run_all"),
        P(verify, "_CHECKS", "verify.check", items=True),
        P(verify, "propagate", "tdse.propagate"),
        P(tdse, "propagate", "tdse.propagate"),
        P(tdse, "populations", "tdse.populations"),
        P(kernels, "cn_sweep", "kernels.cn_sweep", _cn_points),
        P(kernels, "cn_sweep_scaled", "kernels.cn_sweep_scaled",
          _cn_scaled_points),
        P(kernels, "hermite_psi", "kernels.hermite_psi", _hermite),
        P(tdse, "eigenfunction", "spectra.eigenfunction"),
        P(fastforward, "eigenfunction", "spectra.eigenfunction"),
        P(verify, "ff_wavefunction", "fastforward.ff_wavefunction"),
        P(tdse, "ff_wavefunction", "fastforward.ff_wavefunction"),
        P(fastforward, "ff_wavefunction", "fastforward.ff_wavefunction"),
        P(cli, "build_ensemble", "statmech.build_ensemble", _levels_kept),
        P(verify, "build_ensemble", "statmech.build_ensemble", _levels_kept),
        P(cli, "eos_report", "statmech.eos_report", _eos_samples),
        P(verify, "eos_report", "statmech.eos_report", _eos_samples),
        P(verify, "solve_mu_exact", "statmech.solve_mu"),
        P(statmech, "solve_mu_exact", "statmech.solve_mu"),
        P(verify, "mean_force", "statmech.mean_force"),
        P(statmech, "mean_force", "statmech.mean_force"),
        P(statmech, "mean_energy", "statmech.mean_energy"),
        P(cli, "level_force", "observables.level_force", _level_terms),
        P(verify, "level_force", "observables.level_force", _level_terms),
        P(statmech, "level_force", "observables.level_force", _level_terms),
        P(observables, "level_force", "observables.level_force",
          _level_terms),
        P(cli, "level_energy_ff", "observables.level_energy_ff",
          _level_terms),
        P(verify, "level_energy_ff", "observables.level_energy_ff",
          _level_terms),
        P(statmech, "level_energy_ff", "observables.level_energy_ff",
          _level_terms),
        P(observables, "level_energy_ff", "observables.level_energy_ff",
          _level_terms),
        P(verify, "expectation_force", "observables.expectation_force"),
        P(trajectory.Trajectory, "kinematics", "trajectory.kinematics"),
    ]


def _per(num, den, scale):
    return num / den * scale if den else 0.0


def round_metrics(summary, counts):
    """Per-layer metrics of one traced round. Times are self times except
    the verify check times and the EOS time per sample, which are inclusive."""
    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def incl_s(name):
        return summary.get(name, {}).get("incl_s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    c = counts.get
    m = {f"verify.check_s.{cid}": incl_s(f"verify.check.{cid}")
         for cid in CHECK_IDS}
    m["kernels.cn_sweep_s"] = self_s("kernels.cn_sweep")
    m["kernels.cn_point_steps"] = c("cn_point_steps", 0)
    m["kernels.cn_ns_per_point_step"] = _per(
        m["kernels.cn_sweep_s"], m["kernels.cn_point_steps"], 1e9)
    m["kernels.cn_scaled_s"] = self_s("kernels.cn_sweep_scaled")
    m["kernels.cn_scaled_point_steps"] = c("cn_scaled_point_steps", 0)
    m["kernels.cn_scaled_ns_per_point_step"] = _per(
        m["kernels.cn_scaled_s"], m["kernels.cn_scaled_point_steps"], 1e9)
    m["kernels.hermite_psi_s"] = self_s("kernels.hermite_psi")
    m["kernels.hermite_point_orders"] = c("hermite_point_orders", 0)
    m["kernels.hermite_ns_per_point_order"] = _per(
        m["kernels.hermite_psi_s"], m["kernels.hermite_point_orders"], 1e9)
    m["spectra.eigenfunction_s"] = self_s("spectra.eigenfunction")
    m["spectra.eigenfunction_calls"] = calls("spectra.eigenfunction")
    m["spectra.recurrence_yield"] = _per(
        c("hermite_levels", 0), c("hermite_orders", 0), 1.0)
    m["tdse.propagate_s"] = self_s("tdse.propagate")
    m["tdse.propagate_calls"] = calls("tdse.propagate")
    m["tdse.populations_s"] = self_s("tdse.populations")
    m["tdse.populations_calls"] = calls("tdse.populations")
    m["fastforward.ff_wavefunction_s"] = self_s("fastforward.ff_wavefunction")
    m["fastforward.ff_wavefunction_calls"] = calls(
        "fastforward.ff_wavefunction")
    m["statmech.build_ensemble_s"] = self_s("statmech.build_ensemble")
    m["statmech.solve_mu_s"] = self_s("statmech.solve_mu")
    m["statmech.levels_kept"] = c("levels_kept", 0)
    m["statmech.eos_report_s"] = self_s("statmech.eos_report")
    m["statmech.eos_us_per_sample"] = _per(
        incl_s("statmech.eos_report"), c("eos_samples", 0), 1e6)
    m["statmech.mean_sums_s"] = (self_s("statmech.mean_force")
                                 + self_s("statmech.mean_energy"))
    m["observables.level_force_s"] = self_s("observables.level_force")
    m["observables.level_energy_ff_s"] = self_s("observables.level_energy_ff")
    m["observables.level_terms"] = c("level_terms", 0)
    m["observables.expectation_force_s"] = self_s(
        "observables.expectation_force")
    m["trajectory.kinematics_s"] = self_s("trajectory.kinematics")
    m["trajectory.kinematics_calls"] = calls("trajectory.kinematics")
    m["cli.self_s"] = self_s("cli.main")
    return m


def _best_of(repeat, fn, *args):
    best, out = np.inf, None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def baseline_table(repeat=2):
    """Best-of-`repeat` times of the ROADMAP baseline rows, untraced.

    Returns (metrics, rows checked, failure messages).
    """
    out = {}
    failures = []

    def _require(ok, what):
        if not ok:
            failures.append(f"baseline table: {what}")

    traj = trajectory.Trajectory(L0=1.0, v_bar=1.0, T_FF=1.0)

    # Crank-Nicolson, 1e4 steps x 2048 points, soft trap
    g = spectra.Grid.symmetric(spectra.soft_half_width(2.0, 3), 2048)
    nsteps = 10_000
    dt = traj.T_FF / nsteps
    km = traj.kinematics((np.arange(nsteps) + 0.5) * dt)
    qcoef = 0.5 * (1.0 / km.L**4 - km.Lddot / km.L)
    wall = np.full(nsteps, np.inf)
    psi0 = np.exp(-0.5 * g.x**2).astype(np.complex128)
    psi0 /= g.norm(psi0)
    t, psi = _best_of(repeat, kernels.cn_sweep, psi0, g.x, dt, 1.0, 1.0,
                      qcoef, wall, 1e8)
    _require(abs(g.norm(psi) - 1.0) < 1e-8, "CN sweep lost its norm")
    out["table.cn_sweep_s"] = t
    out["table.cn_ns_per_point_step"] = t / (nsteps * g.npoints) * 1e9

    # oscillator recurrence, n = 5000 over 8193 points
    xi = np.linspace(-160.0, 160.0, 8193)
    t, h = _best_of(repeat, kernels.hermite_psi, xi, 5000)
    # 8193 points under-sample n = 5000, so no norm check; the normalized
    # functions are bounded by pi^-1/4
    _require(np.all(np.isfinite(h)) and 0 < np.max(np.abs(h)) < 1,
             "hermite_psi(5000) is not finite and bounded")
    out["table.hermite_psi_s"] = t
    out["table.hermite_ns_per_point_order"] = t / (xi.size * 5000) * 1e9

    # co-moving populations around n_ref = 100 on 4096 points
    soft = spectra.soft_harmonic(L0=1.0)
    k = traj.kinematics(0.5)
    gp = spectra.Grid.symmetric(spectra.soft_half_width(k.L, 100), 4096)
    psi = fastforward.ff_wavefunction(soft, traj, 100, 0.5, gp).psi
    t, (probs, rem) = _best_of(repeat, tdse.populations, soft, psi, k, gp,
                               100)
    _require(abs(rem) < 1e-10, f"populations remainder {rem}")
    out["table.populations_s"] = t

    # hard-wall ensemble at N = 2e4, T0 = 0.05 T_F, and its EOS report
    hard = spectra.hard_wall()
    N = 20_000
    T0 = 0.05 * statmech.degeneracy_temperature(hard, N, 1.0)
    t, ens = _best_of(repeat, statmech.build_ensemble, hard, N, T0, 1.0)
    _require(ens.levels.size == 40_000, f"{ens.levels.size} levels kept")
    out["table.build_ensemble_s"] = t
    times = np.linspace(0.0, traj.T_FF, 100)
    t, recs = _best_of(repeat, statmech.eos_report, hard, ens, traj, times)
    _require(all(np.isfinite(r.F_bar) for r in recs), "non-finite EOS row")
    out["table.eos_report_s"] = t
    out["table.eos_us_per_sample"] = t / times.size * 1e6
    return out, 5, failures
