"""The per-row builders of ex4, ex5 and ex6, independent of the stencil path.

These build every row as its own expression tree, as the library's
builders did before they emitted stencil templates, and hand the rows to
``DaeSystem`` as tuples, so ``codegen.group_shapes`` groups them.  Tests
compare the stencil-built systems' groups and materialized rows against
them.
"""

from typing import List, Optional, Tuple

from sparsedae import expr as ex
from sparsedae.errors import InvalidGrid
from sparsedae.system import DaeSystem


def example4(n: int = 4) -> DaeSystem:
    """1-D PDE pair with ghost nodes; 2n+4 unknowns.

    Layout: c_1..c_n (ODE), then z_1..z_n, c_0, c_{n+1}, z_0, z_{n+1}."""
    if n < 2:
        raise InvalidGrid("example4 needs N >= 2")
    dx = 1.0 / n
    inv_dx2 = 1.0 / (dx * dx)

    # c[i] and z[i] for i = 0..n+1, ghosts at both ends
    c = [ex.U(k) for k in (2 * n + 1, *range(1, n + 1), 2 * n + 2)]
    z = [ex.U(k) for k in (2 * n + 3, *range(n + 1, 2 * n + 1), 2 * n + 4)]

    odes = tuple(
        (c[i + 1] - 2.0 * c[i] + c[i - 1]) * inv_dx2 - c[i] * (1.0 + z[i])
        for i in range(1, n + 1)
    )
    alg: List[ex.Expr] = [
        (z[i + 1] - 2.0 * z[i] + z[i - 1]) * inv_dx2 - (1.0 - c[i] * c[i]) * ex.exp(-z[i])
        for i in range(1, n + 1)
    ]
    alg.append((c[1] - c[0]) / dx)
    alg.append((c[n] + c[n + 1]) * 0.5 - 1.0)
    alg.append((z[1] - z[0]) / dx)
    alg.append((z[n] + z[n + 1]) * 0.5)

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
        alg_residual=tuple(alg),
        var_names=tuple(names),
        y0z0=tuple(init),
        observables=observables,
    )


class _Grid:
    """Unknowns of one field on an n x m cell grid with a ghost layer per side.

    Cell (i, j), 1-based, is ``U(cell0 + (j-1)*n + i)``; the ghosts follow
    ``ghost0`` in the order W_1..W_m, E_1..E_m, S_1..S_n, N_1..N_n."""

    def __init__(self, n: int, m: int, cell0: int, ghost0: int):
        self.n, self.m, self.cell0, self.ghost0 = n, m, cell0, ghost0

    def cell(self, i: int, j: int) -> ex.Expr:
        return ex.U(self.cell0 + (j - 1) * self.n + i)

    def west(self, j: int) -> ex.Expr:
        return ex.U(self.ghost0 + j)

    def east(self, j: int) -> ex.Expr:
        return ex.U(self.ghost0 + self.m + j)

    def south(self, i: int) -> ex.Expr:
        return ex.U(self.ghost0 + 2 * self.m + i)

    def north(self, i: int) -> ex.Expr:
        return ex.U(self.ghost0 + 2 * self.m + self.n + i)

    def neighbors(self, i: int, j: int) -> Tuple[ex.Expr, ex.Expr, ex.Expr, ex.Expr]:
        """West, east, south and north of cell (i, j), ghosts at the edges."""
        n, m = self.n, self.m
        return (self.west(j) if i == 1 else self.cell(i - 1, j),
                self.east(j) if i == n else self.cell(i + 1, j),
                self.south(i) if j == 1 else self.cell(i, j - 1),
                self.north(i) if j == m else self.cell(i, j + 1))

    def names(self, fld: str) -> Tuple[List[str], List[str]]:
        """The cell names and the ghost names of field ``fld``."""
        rows, cols = range(1, self.m + 1), range(1, self.n + 1)
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
    g = _Grid(n, m, 0, nm)
    cell = g.cell

    p2 = ex.Param("phi") * ex.Param("phi")
    odes = []
    for j in range(1, m + 1):
        for i in range(1, n + 1):
            cc = cell(i, j)
            cw, ce, cs, cn = g.neighbors(i, j)
            odes.append((ce - 2.0 * cc + cw) * inv_dx2
                        + (cn - 2.0 * cc + cs) * inv_dy2
                        - p2 * cc * cc)

    alg: List[ex.Expr] = []
    for j in range(1, m + 1):  # zero flux at x=0
        alg.append((cell(1, j) - g.west(j)) / dx)
    for j in range(1, m + 1):  # Dirichlet c=1 at x=1
        alg.append((cell(n, j) + g.east(j)) * 0.5 - 1.0)
    for i in range(1, n + 1):  # zero flux at y=0
        alg.append((cell(i, 1) - g.south(i)) / dy)
    for i in range(1, n + 1):  # Dirichlet c=1 at y=1
        alg.append((cell(i, m) + g.north(i)) * 0.5 - 1.0)

    cells, ghosts = g.names("c")
    init = ([float(c0)] * nm + [float(c0)] * m + [2.0 - c0] * m
            + [float(c0)] * n + [2.0 - c0] * n)

    i0, j0 = max(1, n // 2), max(1, m // 2)
    observables = {
        "c_origin": ((nm + 1, 0.5), (1, 0.5)),                      # x=0 edge of cell (1,1)
        "c_center": (((j0 - 1) * n + i0, 1.0),),
    }
    return DaeSystem(
        ode_rhs=tuple(odes),
        alg_residual=tuple(alg),
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
    gc, gp = _Grid(n, m, 0, gc0), _Grid(n, m, nm, gp0)
    c, p = gc.cell, gp.cell

    inv_dx2, inv_dy2 = 1.0 / (dx * dx), 1.0 / (dy * dy)
    odes = []
    for j in range(1, m + 1):
        for i in range(1, n + 1):
            cc = c(i, j)
            cw, ce_, cs, cn = gc.neighbors(i, j)
            odes.append(Dx * ((ce_ - 2.0 * cc + cw) * inv_dx2)
                        + Dy * ((cn - 2.0 * cc + cs) * inv_dy2))

    alg: List[ex.Expr] = []
    # potential rows: flux divergence with face-averaged concentrations
    for j in range(1, m + 1):
        for i in range(1, n + 1):
            cc, pc = c(i, j), p(i, j)
            cw, ce_, cs, cn = gc.neighbors(i, j)
            pw, pe, ps, pn = gp.neighbors(i, j)
            flux_e = Dx * ((ce_ + cc) * 0.5) * ((pe - pc) / dx)
            flux_w = Dx * ((cc + cw) * 0.5) * ((pc - pw) / dx)
            flux_n = Dy * ((cc + cn) * 0.5) * ((pn - pc) / dy)
            flux_s = Dy * ((cc + cs) * 0.5) * ((pc - ps) / dy)
            alg.append((flux_e - flux_w) / dx + (flux_n - flux_s) / dy)

    # concentration ghosts
    for j in range(1, m + 1):  # x = 0: electrode kinetics / insulation
        if j <= half:
            face_c = (gc.west(j) + c(1, j)) * 0.5
            face_p = (gp.west(j) + p(1, j)) * 0.5
            alg.append(Dx * (c(1, j) - gc.west(j)) / dx - Da * face_c * face_p)
        else:
            alg.append((c(1, j) - gc.west(j)) / dx)
    for j in range(1, m + 1):  # x = L: applied flux
        alg.append(Dx * (gc.east(j) - c(n, j)) / dx - Delta)
    for i in range(1, n + 1):  # y = 0: zero flux
        alg.append((c(i, 1) - gc.south(i)) / dy)
    for i in range(1, n + 1):  # y = H: zero flux
        alg.append((gc.north(i) - c(i, m)) / dy)

    # potential ghosts
    for j in range(1, m + 1):  # x = 0
        if j <= half:
            face_p = (gp.west(j) + p(1, j)) * 0.5
            alg.append(Dx * (p(1, j) - gp.west(j)) / dx - Da * face_p)
        else:
            alg.append((p(1, j) - gp.west(j)) / dx)
    for j in range(1, m + 1):  # x = L: applied current
        alg.append(Dx * ((gc.east(j) + c(n, j)) * 0.5) * ((gp.east(j) - p(n, j)) / dx) - Delta)
    for i in range(1, n + 1):  # y = 0
        alg.append((p(i, 1) - gp.south(i)) / dy)
    for i in range(1, n + 1):  # y = H
        alg.append((gp.north(i) - p(i, m)) / dy)

    (c_cells, c_ghosts), (p_cells, p_ghosts) = gc.names("c"), gp.names("phi")
    init = [1.0] * nm + [0.0] * nm + [1.0] * (2 * m + 2 * n) + [0.0] * (2 * m + 2 * n)

    i0, j0 = max(1, n // 2), half
    observables = {
        "c_xmid_y0": ((gc0 + 2 * m + i0, 0.5), ((1 - 1) * n + i0, 0.5)),
        "phi_xmid_y0": ((gp0 + 2 * m + i0, 0.5), (nm + (1 - 1) * n + i0, 0.5)),
        "c_x0_ymid": ((gc0 + j0, 0.5), ((j0 - 1) * n + 1, 0.5)),
        "phi_x0_ymid": ((gp0 + j0, 0.5), (nm + (j0 - 1) * n + 1, 0.5)),
    }
    return DaeSystem(
        ode_rhs=tuple(odes),
        alg_residual=tuple(alg),
        var_names=tuple(c_cells + p_cells + c_ghosts + p_ghosts),
        y0z0=tuple(init),
        params={"Dx": float(dx_coeff), "Dy": float(dy_coeff),
                "Da": float(da), "delta": float(delta)},
        observables=observables,
    )
