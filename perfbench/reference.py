"""Independent references and property checks, in numpy and scipy only.

Nothing here imports sparsedae: the problems are transcribed from their
definitions (README "Built-in problems" and ``sparsedae.problems``), and the
references are computed by scipy's integrators.

- ex2 (Van der Pol, mu=2): ``solve_ivp`` Radau at rtol=atol=1e-12.
- ex5: the interior cells with the ghost nodes eliminated, integrated by
  ``solve_ivp`` BDF with the analytic sparse Jacobian.
- ex6: the algebraic equations, evaluated on a state the solver returns.

Each ``check_*`` function takes one operation record from ``worker.py``,
adds the values it measured to the record, and returns a list of failure
messages (empty when the operation is correct).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp

# criterion 3's accuracy tolerance against the reference final state
VDP_TOL = 5e-4
# final interior state against the transcription (the solver's atol)
DIFFUSION_TOL = 1e-6
# |c - c^T| on the square grid with symmetric boundaries
SYMMETRY_TOL = 1e-10
# algebraic residual in units of the unknowns (the solver's atol)
ALGEBRAIC_TOL = 1e-6


def vdp_final(tf: float = 10.0, mu: float = 2.0) -> np.ndarray:
    """x' = mu (1 - y^2) x - y, y' = x, (x, y)(0) = (0, 2)."""
    def f(t, u):
        x, y = u
        return [mu * (1.0 - y * y) * x - y, x]

    def jac(t, u):
        x, y = u
        return [[mu * (1.0 - y * y), -2.0 * mu * x * y - 1.0], [1.0, 0.0]]

    sol = solve_ivp(f, (0.0, tf), [0.0, 2.0], method="Radau", rtol=1e-12, atol=1e-12, jac=jac)
    if sol.status != 0:
        raise RuntimeError(f"Van der Pol reference failed: {sol.message}")
    return sol.y[:, -1]


def _neumann_dirichlet_1d(n: int, d: float):
    """Second difference on n cells, zero flux at the first face (ghost =
    first cell) and c = 1 at the last face (ghost = 2 - last cell)."""
    main = np.full(n, -2.0)
    main[0], main[-1] = -1.0, -3.0
    a = sp.diags([np.ones(n - 1), main, np.ones(n - 1)], [-1, 0, 1]) / (d * d)
    b = np.zeros(n)
    b[-1] = 2.0 / (d * d)
    return a.tocsr(), b


def diffusion_final(n: int, m: int, c0: float, tf: float, phi: float = 0.5) -> np.ndarray:
    """ex5's interior cells at ``tf``, ordered with i (x) fastest:
    c' = c_xx + c_yy - phi^2 c^2, zero flux at x=0 and y=0, c=1 at x=1, y=1."""
    ax, bx = _neumann_dirichlet_1d(n, 1.0 / n)
    ay, by = _neumann_dirichlet_1d(m, 1.0 / m)
    lap = (sp.kron(sp.identity(m), ax) + sp.kron(ay, sp.identity(n))).tocsr()
    src = np.kron(np.ones(m), bx) + np.kron(by, np.ones(n))
    p2 = phi * phi

    def f(t, c):
        return lap @ c + src - p2 * c * c

    def jac(t, c):
        return (lap - sp.diags(2.0 * p2 * c)).tocsc()

    sol = solve_ivp(f, (0.0, tf), np.full(n * m, float(c0)), method="BDF",
                    rtol=1e-10, atol=1e-12, jac=jac)
    if sol.status != 0:
        raise RuntimeError(f"ex5 reference failed: {sol.message}")
    return sol.y[:, -1]


def electrolyte_algebraic(state: np.ndarray, n: int, m: int, dx_coeff: float = 1.0,
                          dy_coeff: float = 1.0, da: float = 1.0, delta: float = 1.0):
    """ex6's algebraic residuals g (potential rows, then concentration and
    potential ghost rows) and g scaled to units of the unknowns: each row is
    divided by the magnitude of its coefficients on the unknowns."""
    u = np.asarray(state, dtype=float)
    nm = n * m
    dx, dy = 0.1 / n, 1.0 / m
    half = m // 2
    electrode = np.arange(1, m + 1) <= half

    def field(interior, g0):
        # (m+2, n+2) array with the ghost layers on the edges, corners unused
        a = np.zeros((m + 2, n + 2))
        a[1:-1, 1:-1] = interior.reshape(m, n)
        a[1:-1, 0] = u[g0:g0 + m]
        a[1:-1, -1] = u[g0 + m:g0 + 2 * m]
        a[0, 1:-1] = u[g0 + 2 * m:g0 + 2 * m + n]
        a[-1, 1:-1] = u[g0 + 2 * m + n:g0 + 2 * m + 2 * n]
        return a

    gc0 = 2 * nm
    gp0 = 2 * nm + 2 * m + 2 * n
    c = field(u[:nm], gc0)
    p = field(u[nm:2 * nm], gp0)
    cc, pc = c[1:-1, 1:-1], p[1:-1, 1:-1]
    ce, cw, cn, cs = c[1:-1, 2:], c[1:-1, :-2], c[2:, 1:-1], c[:-2, 1:-1]
    pe, pw, pn, ps = p[1:-1, 2:], p[1:-1, :-2], p[2:, 1:-1], p[:-2, 1:-1]

    Dx, Dy = dx_coeff, dy_coeff
    fe = Dx * (ce + cc) * 0.5 * (pe - pc) / dx
    fw = Dx * (cc + cw) * 0.5 * (pc - pw) / dx
    fn = Dy * (cc + cn) * 0.5 * (pn - pc) / dy
    fs = Dy * (cc + cs) * 0.5 * (pc - ps) / dy
    g_pot = ((fe - fw) / dx + (fn - fs) / dy).ravel()
    s_pot = (Dx * (np.abs(ce + cc) + np.abs(cc + cw)) * 0.5 / dx ** 2
             + Dy * (np.abs(cc + cn) + np.abs(cc + cs)) * 0.5 / dy ** 2).ravel()

    c1, cgw, cnx, cge = c[1:-1, 1], c[1:-1, 0], c[1:-1, -2], c[1:-1, -1]
    p1, pgw, pnx, pge = p[1:-1, 1], p[1:-1, 0], p[1:-1, -2], p[1:-1, -1]
    face_c, face_p = (cgw + c1) * 0.5, (pgw + p1) * 0.5
    g_cw = np.where(electrode, Dx * (c1 - cgw) / dx - da * face_c * face_p, (c1 - cgw) / dx)
    s_cw = np.where(electrode, Dx / dx + da * 0.5 * (np.abs(face_p) + np.abs(face_c)), 1.0 / dx)
    g_ce = Dx * (cge - cnx) / dx - delta
    s_ce = np.full(m, Dx / dx)
    g_cs = (c[1, 1:-1] - c[0, 1:-1]) / dy
    g_cn = (c[-1, 1:-1] - c[-2, 1:-1]) / dy
    g_pw = np.where(electrode, Dx * (p1 - pgw) / dx - da * face_p, (p1 - pgw) / dx)
    s_pw = np.where(electrode, Dx / dx + 0.5 * da, 1.0 / dx)
    face_ce = (cge + cnx) * 0.5
    g_pe = Dx * face_ce * (pge - pnx) / dx - delta
    s_pe = Dx * (np.abs(face_ce) / dx + np.abs(pge - pnx) / (2 * dx))
    g_ps = (p[1, 1:-1] - p[0, 1:-1]) / dy
    g_pn = (p[-1, 1:-1] - p[-2, 1:-1]) / dy
    s_y = np.full(n, 1.0 / dy)

    g = np.concatenate([g_pot, g_cw, g_ce, g_cs, g_cn, g_pw, g_pe, g_ps, g_pn])
    s = np.concatenate([s_pot, s_cw, s_ce, s_y, s_y, s_pw, s_pe, s_y, s_y])
    return g, g / s


def _status(rec) -> List[str]:
    if rec["status"] != "Success":
        return [f"{rec['name']}: status {rec['status']}"]
    return []


def check_vdp(rec, ref: Dict[str, np.ndarray], op) -> List[str]:
    bad = _status(rec)
    err = float(np.abs(np.asarray(rec["final"]) - ref["vdp"]).max())
    rec["ref_error"] = err
    if not err <= VDP_TOL:
        bad.append(f"{rec['name']}: final state off the Radau reference by {err:.3e} > {VDP_TOL}")
    return bad


def check_diffusion(rec, ref: Dict[str, np.ndarray], op) -> List[str]:
    bad = _status(rec)
    n, m = op.problem_args["n"], op.problem_args["m"]
    c = np.asarray(rec["final"])[:n * m]
    err = float(np.abs(c - ref["diffusion"]).max())
    asym = float(np.abs(c.reshape(m, n) - c.reshape(m, n).T).max())
    rec.update(ref_error=err, asymmetry=asym)
    if not err <= DIFFUSION_TOL:
        bad.append(f"{rec['name']}: interior off the BDF transcription by {err:.3e} > {DIFFUSION_TOL}")
    if not (c.min() >= 0.0 and c.max() <= 1.0):
        bad.append(f"{rec['name']}: c outside [0, 1]: [{c.min():.17g}, {c.max():.17g}]")
    if not asym <= SYMMETRY_TOL:
        bad.append(f"{rec['name']}: solution not symmetric under transposition ({asym:.3e})")
    return bad


def check_electrolyte(rec, ref: Dict[str, np.ndarray], op) -> List[str]:
    bad = _status(rec)
    for which in ("initial", "final"):
        g, scaled = electrolyte_algebraic(np.asarray(rec[which]), **op.problem_args)
        rec[f"{which}_max_abs_g"] = float(np.abs(g).max())
        rec[f"{which}_max_scaled_g"] = worst = float(np.abs(scaled).max())
        if not worst <= ALGEBRAIC_TOL:
            bad.append(f"{rec['name']}: {which} state violates the algebraic equations "
                       f"(scaled residual {worst:.3e} > {ALGEBRAIC_TOL})")
    return bad


def references(workload: str, ops) -> Dict[str, np.ndarray]:
    """Reference data one run needs, computed once before its rounds."""
    if workload == "vdp-4methods":
        return {"vdp": vdp_final(ops[0].options["tf"])}
    if workload == "diffusion-2d":
        op = ops[0]
        return {"diffusion": diffusion_final(tf=op.options["tf"], **op.problem_args)}
    return {}


CHECKS = {
    "vdp-4methods": check_vdp,
    "diffusion-2d": check_diffusion,
    "electrolyte-short": check_electrolyte,
}
