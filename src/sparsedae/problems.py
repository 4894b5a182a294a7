"""Built-in benchmark problems.

ex1  oscillatory index-1 DAE:      y' = z,  y^2 + z^2 = 1
ex2  Van der Pol (stiff ODE pair), mu = 2
ex3  DAE needing consistent initialization: -100 ln(z) + 2y = 5
ex4  1-D reaction-diffusion PDE pair, cell-centered FD with ghost nodes
ex5  2-D diffusion with quadratic consumption on the unit square
ex6  2-D electrolyte concentration/potential (tertiary current distribution)

The PDE problems make every ghost node a first-class algebraic unknown whose
defining equation is the boundary condition; that is what produces system
sizes 2N+4, NM+2N+2M, and 2NM+4N+4M.  They emit their rows as stencil
templates (``system.StencilRows``): one row per stencil class (interior
cells, each ghost side, electrode and insulated rows) over numpy tables of
its members' unknowns, so building a grid never builds a row.  The small
problems give their rows as tuples.

ex6's physical parameters are not calibrated against published data; their
defaults are placeholders and all four are settable.  The
electrode rows at x=0 use face averages: the concentration flux balances
Da*c_face*phi_face and the potential flux balances Da*phi_face.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import expr as ex
from .errors import InvalidGrid, SparseDaeError, UnknownObservable
from .system import DaeSystem, Stencil, StencilRows


def example1() -> DaeSystem:
    y, z = ex.U(1), ex.U(2)
    return DaeSystem(
        ode_rhs=(z,),
        alg_residual=(y * y + z * z - 1.0,),
        var_names=("y", "z"),
        y0z0=(0.0, 0.95),
    )


def example1_piecewise() -> DaeSystem:
    """ex1 with a piecewise right-hand side: y' = z * (1 if z >= 0.7 else 1/2)."""
    z = ex.U(2)
    gain = ex.piecewise((ex.Branch(z, ">=", 0.7, ex.Const(1.0)),), ex.Const(0.5))
    return replace(example1(), ode_rhs=(z * gain,))


def example2() -> DaeSystem:
    x, y = ex.U(1), ex.U(2)
    mu = ex.Param("mu")
    return DaeSystem(
        ode_rhs=(mu * (1.0 - y * y) * x - y, x),
        alg_residual=(),
        var_names=("x", "y"),
        y0z0=(0.0, 2.0),
        params={"mu": 2.0},
    )


def example3() -> DaeSystem:
    y, z = ex.U(1), ex.U(2)
    return DaeSystem(
        ode_rhs=(-2.0 * y + z * z,),
        alg_residual=(-100.0 * ex.ln(z) + 2.0 * y - 5.0,),
        var_names=("y", "z"),
        y0z0=(2.0, 1.0),
    )


def decay() -> DaeSystem:
    """Linear decay y' = -y, y(0) = 1; exact solution exp(-t)."""
    return DaeSystem(
        ode_rhs=(-ex.U(1),),
        alg_residual=(),
        var_names=("y",),
        y0z0=(1.0,),
    )


def _stencils(*blocks) -> StencilRows:
    """Rows from ``(build, *columns)`` blocks, laid out one block after another.

    Each column is an array of 0-based unknowns, one per member; ``build``
    takes one unknown per column and returns the row, and is called once, on
    the first member's unknowns, for the block's template."""
    stencils, start = [], 0
    for build, *columns in blocks:
        index = np.stack(columns, axis=1).astype(np.int64)
        first = [ex.U(k + 1) for k in index[0].tolist()]
        stencils.append(Stencil(build(*first), np.arange(start, start + len(index)), index))
        start += len(index)
    return StencilRows(stencils)


def example4(n: int = 4) -> DaeSystem:
    """1-D PDE pair with ghost nodes; 2n+4 unknowns.

    Layout: c_1..c_n (ODE), then z_1..z_n, c_0, c_{n+1}, z_0, z_{n+1}."""
    if n < 2:
        raise InvalidGrid("example4 needs N >= 2")
    dx = 1.0 / n
    inv_dx2 = 1.0 / (dx * dx)

    # 0-based unknowns of c[i] and z[i] for i = 0..n+1, ghosts at both ends
    c = np.array([2 * n, *range(n), 2 * n + 1])
    z = np.array([2 * n + 2, *range(n, 2 * n), 2 * n + 3])
    west, centre, east = slice(0, n), slice(1, n + 1), slice(2, n + 2)

    odes = _stencils(
        (lambda ce, cc, cw, zc: (ce - 2.0 * cc + cw) * inv_dx2 - cc * (1.0 + zc),
         c[east], c[centre], c[west], z[centre]))
    alg = _stencils(
        (lambda ze, zc, zw, cc: (ze - 2.0 * zc + zw) * inv_dx2 - (1.0 - cc * cc) * ex.exp(-zc),
         z[east], z[centre], z[west], c[centre]),
        (lambda c1, c0: (c1 - c0) / dx, c[1:2], c[0:1]),
        (lambda cn, cg: (cn + cg) * 0.5 - 1.0, c[n:n + 1], c[n + 1:]),
        (lambda z1, z0: (z1 - z0) / dx, z[1:2], z[0:1]),
        (lambda zn, zg: (zn + zg) * 0.5, z[n:n + 1], z[n + 1:]))

    names = ([f"c_{i}" for i in range(1, n + 1)]
             + [f"z_{i}" for i in range(1, n + 1)]
             + ["c_0", f"c_{n + 1}", "z_0", f"z_{n + 1}"])
    init = [1.0] * n + [0.0] * n + [1.0, 1.0, 0.0, 0.0]
    observables = {
        "c_x0": ((2 * n + 1, 0.5), (1, 0.5)),
        "z_x0": ((2 * n + 3, 0.5), (n + 1, 0.5)),
    }
    return DaeSystem(
        ode_rhs=odes,
        alg_residual=alg,
        var_names=tuple(names),
        y0z0=tuple(init),
        observables=observables,
    )


def _field(n: int, m: int, cell0: int, ghost0: int) -> np.ndarray:
    """0-based unknowns of one field on an n x m cell grid, padded with a
    ghost layer per side: entry ``[j, i]`` is cell (i, j) for 1 <= i <= n,
    1 <= j <= m, and the W, E, S and N ghosts sit at i = 0, i = n+1, j = 0
    and j = m+1.  The cells are ``cell0`` on, row by row in j; the ghosts
    are ``ghost0`` on, in the order W_1..W_m, E_1..E_m, S_1..S_n, N_1..N_n.
    The corners are -1: the five-point stencil never reads them."""
    g = np.full((m + 2, n + 2), -1, dtype=np.int64)
    g[1:-1, 1:-1] = cell0 + np.arange(n * m).reshape(m, n)
    g[1:-1, 0] = ghost0 + np.arange(m)
    g[1:-1, -1] = ghost0 + m + np.arange(m)
    g[0, 1:-1] = ghost0 + 2 * m + np.arange(n)
    g[-1, 1:-1] = ghost0 + 2 * m + n + np.arange(n)
    return g


def _five_point(g: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Each cell's unknown and its west, east, south and north neighbours in
    the padded field ``g``, cells in row order, ghosts at the edges."""
    return tuple(a.ravel() for a in (g[1:-1, 1:-1], g[1:-1, :-2], g[1:-1, 2:],
                                     g[:-2, 1:-1], g[2:, 1:-1]))


def _names(fld: str, n: int, m: int) -> Tuple[List[str], List[str]]:
    """The cell names and the ghost names of field ``fld``, in ``_field``'s order."""
    rows, cols = range(1, m + 1), range(1, n + 1)
    cells = [f"{fld}_{i}_{j}" for j in rows for i in cols]
    ghosts = ([f"{fld}W_{j}" for j in rows] + [f"{fld}E_{j}" for j in rows]
              + [f"{fld}S_{i}" for i in cols] + [f"{fld}N_{i}" for i in cols])
    return cells, ghosts


def example5(n: int = 4, m: Optional[int] = None, phi: float = 0.5,
             c0: float = 0.0) -> DaeSystem:
    """2-D diffusion-consumption on the unit square; n*m + 2n + 2m unknowns,
    M defaults to N.

    Interior cells are ODE variables; the four ghost layers are algebraic
    (no corner ghosts: the five-point stencil never touches them).  ``c0``
    sets the interior initial value; with the walls held at 1, c0=0 starts
    a sharp boundary layer while c0=1 starts from wall equilibrium."""
    if m is None:
        m = n
    if n < 2 or m < 2:
        raise InvalidGrid("example5 needs N, M >= 2")
    dx, dy = 1.0 / n, 1.0 / m
    inv_dx2, inv_dy2 = 1.0 / (dx * dx), 1.0 / (dy * dy)
    nm = n * m
    g = _field(n, m, 0, nm)

    p2 = ex.Param("phi") * ex.Param("phi")
    odes = _stencils(
        (lambda cc, cw, ce, cs, cn: (ce - 2.0 * cc + cw) * inv_dx2
         + (cn - 2.0 * cc + cs) * inv_dy2 - p2 * cc * cc, *_five_point(g)))
    alg = _stencils(
        (lambda c, gw: (c - gw) / dx, g[1:-1, 1], g[1:-1, 0]),                # zero flux at x=0
        (lambda c, ge: (c + ge) * 0.5 - 1.0, g[1:-1, n], g[1:-1, n + 1]),     # Dirichlet c=1 at x=1
        (lambda c, gs: (c - gs) / dy, g[1, 1:-1], g[0, 1:-1]),                # zero flux at y=0
        (lambda c, gn: (c + gn) * 0.5 - 1.0, g[m, 1:-1], g[m + 1, 1:-1]))     # Dirichlet c=1 at y=1

    cells, ghosts = _names("c", n, m)
    init = ([float(c0)] * nm + [float(c0)] * m + [2.0 - c0] * m
            + [float(c0)] * n + [2.0 - c0] * n)

    i0, j0 = max(1, n // 2), max(1, m // 2)
    observables = {
        "c_origin": ((nm + 1, 0.5), (1, 0.5)),                      # x=0 edge of cell (1,1)
        "c_center": (((j0 - 1) * n + i0, 1.0),),
    }
    return DaeSystem(
        ode_rhs=odes,
        alg_residual=alg,
        var_names=tuple(cells + ghosts),
        y0z0=tuple(init),
        params={"phi": float(phi)},
        observables=observables,
    )


def example6(n: int = 4, m: Optional[int] = None, dx_coeff: float = 1.0,
             dy_coeff: float = 1.0, da: float = 1.0, delta: float = 1.0) -> DaeSystem:
    """2-D electrolyte model; 2nm + 4n + 4m unknowns, M defaults to 2N.

    Domain is x in [0, 0.1], y in [0, 1] with dx = 0.1/N, dy = 1/M.  The
    electrode occupies 0 < y <= 1/2 (grid rows j = 1..M/2); M must be even
    so the split falls between cells."""
    if m is None:
        m = 2 * n
    if n < 2 or m < 2:
        raise InvalidGrid("example6 needs N >= 2, M >= 2")
    if m % 2 != 0:
        raise InvalidGrid("example6 needs even M (electrode edge at y = H/2)")
    dx, dy = 0.1 / n, 1.0 / m
    nm = n * m
    half = m // 2

    Dx, Dy = ex.Param("Dx"), ex.Param("Dy")
    Da, Delta = ex.Param("Da"), ex.Param("delta")

    gc0, gp0 = 2 * nm, 2 * nm + 2 * m + 2 * n
    gc, gp = _field(n, m, 0, gc0), _field(n, m, nm, gp0)
    inv_dx2, inv_dy2 = 1.0 / (dx * dx), 1.0 / (dy * dy)

    def potential(cc, cw, ce_, cs, cn, pc, pw, pe, ps, pn):
        # flux divergence with face-averaged concentrations
        flux_e = Dx * ((ce_ + cc) * 0.5) * ((pe - pc) / dx)
        flux_w = Dx * ((cc + cw) * 0.5) * ((pc - pw) / dx)
        flux_n = Dy * ((cc + cn) * 0.5) * ((pn - pc) / dy)
        flux_s = Dy * ((cc + cs) * 0.5) * ((pc - ps) / dy)
        return (flux_e - flux_w) / dx + (flux_n - flux_s) / dy

    def electrode_c(c1, cw, p1, pw):
        face_c = (cw + c1) * 0.5
        face_p = (pw + p1) * 0.5
        return Dx * (c1 - cw) / dx - Da * face_c * face_p

    def electrode_p(p1, pw):
        face_p = (pw + p1) * 0.5
        return Dx * (p1 - pw) / dx - Da * face_p

    # grid rows j = 1..half of the x = 0 ghosts face the electrode, the rest
    # are insulated
    lo, hi = slice(1, half + 1), slice(half + 1, m + 1)
    odes = _stencils(
        (lambda cc, cw, ce_, cs, cn: Dx * ((ce_ - 2.0 * cc + cw) * inv_dx2)
         + Dy * ((cn - 2.0 * cc + cs) * inv_dy2), *_five_point(gc)))
    alg = _stencils(
        (potential, *_five_point(gc), *_five_point(gp)),
        # concentration ghosts: x = 0 electrode kinetics / insulation,
        # x = L applied flux, zero flux at y = 0 and y = H
        (electrode_c, gc[lo, 1], gc[lo, 0], gp[lo, 1], gp[lo, 0]),
        (lambda c1, cw: (c1 - cw) / dx, gc[hi, 1], gc[hi, 0]),
        (lambda ce, cn: Dx * (ce - cn) / dx - Delta, gc[1:-1, n + 1], gc[1:-1, n]),
        (lambda c1, cs: (c1 - cs) / dy, gc[1, 1:-1], gc[0, 1:-1]),
        (lambda cn, cm: (cn - cm) / dy, gc[m + 1, 1:-1], gc[m, 1:-1]),
        # potential ghosts: x = 0, x = L applied current, y = 0, y = H
        (electrode_p, gp[lo, 1], gp[lo, 0]),
        (lambda p1, pw: (p1 - pw) / dx, gp[hi, 1], gp[hi, 0]),
        (lambda ce, cn, pe, pn: Dx * ((ce + cn) * 0.5) * ((pe - pn) / dx) - Delta,
         gc[1:-1, n + 1], gc[1:-1, n], gp[1:-1, n + 1], gp[1:-1, n]),
        (lambda p1, ps: (p1 - ps) / dy, gp[1, 1:-1], gp[0, 1:-1]),
        (lambda pn, pm: (pn - pm) / dy, gp[m + 1, 1:-1], gp[m, 1:-1]))

    (c_cells, c_ghosts), (p_cells, p_ghosts) = _names("c", n, m), _names("phi", n, m)
    init = [1.0] * nm + [0.0] * nm + [1.0] * (2 * m + 2 * n) + [0.0] * (2 * m + 2 * n)

    i0, j0 = max(1, n // 2), half
    observables = {
        "c_xmid_y0": ((gc0 + 2 * m + i0, 0.5), ((1 - 1) * n + i0, 0.5)),
        "phi_xmid_y0": ((gp0 + 2 * m + i0, 0.5), (nm + (1 - 1) * n + i0, 0.5)),
        "c_x0_ymid": ((gc0 + j0, 0.5), ((j0 - 1) * n + 1, 0.5)),
        "phi_x0_ymid": ((gp0 + j0, 0.5), (nm + (j0 - 1) * n + 1, 0.5)),
    }
    return DaeSystem(
        ode_rhs=odes,
        alg_residual=alg,
        var_names=tuple(c_cells + p_cells + c_ghosts + p_ghosts),
        y0z0=tuple(init),
        params={"Dx": float(dx_coeff), "Dy": float(dy_coeff),
                "Da": float(da), "delta": float(delta)},
        observables=observables,
    )


def probe(state: np.ndarray, sys: DaeSystem, observable: str) -> float:
    """Named observable value (two-cell averages etc.) from one state record."""
    try:
        combo = sys.observables[observable]
    except KeyError:
        raise UnknownObservable(
            f"{observable!r}; available: {sorted(sys.observables) or 'none'}"
        )
    return float(sum(w * state[k - 1] for k, w in combo))


# exact-solution oracles for order studies
ORACLES: Dict[str, Callable[[float], np.ndarray]] = {
    "ex1": lambda t: np.array([math.sin(t), math.cos(t)]),
    "decay": lambda t: np.array([math.exp(-t)]),
}


# builtin id -> constructor, whose signature holds the builtin's keywords
# and their defaults
BUILTINS: Dict[str, Callable[..., DaeSystem]] = {
    "ex1": example1, "ex1pw": example1_piecewise, "ex2": example2, "ex3": example3,
    "ex4": example4, "ex5": example5, "ex6": example6, "decay": decay,
}


def builtin_keywords(name: str) -> Tuple[str, ...]:
    """The keywords that builtin ``name``'s constructor takes."""
    return tuple(inspect.signature(BUILTINS[name]).parameters)


def make_builtin(name: str, **kw) -> DaeSystem:
    """The builtin problem ``name`` built with keywords ``kw``; KeyError for an
    unknown id, SparseDaeError for a keyword its constructor does not take."""
    stray = [k for k in kw if k not in builtin_keywords(name)]
    if stray:
        raise SparseDaeError(f"builtin {name} takes no keyword {stray[0]!r}")
    return BUILTINS[name](**kw)
