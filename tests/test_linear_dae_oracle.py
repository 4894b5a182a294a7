"""Exact-solution oracle: seeded linear index-1 DAEs with constant coefficients.

Each system is y' = Ay + Bz, 0 = Cy + Dz + e.  Eliminating z = -D^-1(Cy + e)
leaves y' = My + c with M = A - B D^-1 C and c = -B D^-1 e; the draw picks M
first, with eigenvalues geometrically spaced on [-stiffness, -1], and sets
A = M + B D^-1 C.  The exact y(tf) is expm of the reduced system with the
constant term appended as one more state, and z(tf) follows from y(tf).
"""

import numpy as np
import pytest
import scipy.linalg

from sparsedae import expr as ex
from sparsedae.stepper import SolverOptions, Status, integrate
from sparsedae.system import DaeSystem, MethodKind

TF, ATOL = 1.0, 1e-6
SEEDS = range(10)

# worst max_i |u_i - exact_i| / (1 + |exact_i|) / atol over seeds 0-59 (tf = 1,
# atol = 1e-6, standard denominator), measured per method; the test runs the
# first ten seeds and bounds each method at MARGIN times its worst
WORST = {MethodKind.EB: 2.73, MethodKind.CN: 0.561, MethodKind.IMPTRAP: 0.561, MethodKind.RAD: 0.376}
MARGIN = 2.0

# Richardson-extrapolated backward Euler is not L-stable (README, controller
# notes), so on stiff draws eb holds its step small: on 18 of seeds 0-59
# (stiffness 3.9e3 to 5.4e4) it takes more than the default ntot of 1000
# steps; seed 5 (stiffness 1.1e4) takes 1331, and the most is 1613.  20,000
# leaves a wide margin.
NTOT = 20_000


def linear_dae(seed: int):
    """The seeded system, with the exact state at ``TF``."""
    rng = np.random.default_rng(seed)
    ny, nz = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    stiffness = 10.0 ** rng.uniform(0, 5)
    q = np.linalg.qr(rng.normal(size=(ny, ny)))[0]
    m = q @ np.diag(-np.geomspace(1.0, stiffness, ny)) @ q.T
    b, c = rng.normal(size=(ny, nz)), rng.normal(size=(nz, ny))
    d = 0.5 * rng.normal(size=(nz, nz)) + 3.0 * np.eye(nz)
    e = rng.normal(size=nz)
    a = m + b @ np.linalg.solve(d, c)
    y0 = rng.normal(size=ny)
    z0 = -np.linalg.solve(d, c @ y0 + e)
    guess = z0 + 0.5 * rng.normal(size=nz)   # initialization has to move it

    aug = np.zeros((ny + 1, ny + 1))
    aug[:ny, :ny] = m
    aug[:ny, ny] = -b @ np.linalg.solve(d, e)
    y = (scipy.linalg.expm(TF * aug) @ np.append(y0, 1.0))[:ny]
    exact = np.concatenate([y, -np.linalg.solve(d, c @ y + e)])

    u = [ex.U(k + 1) for k in range(ny + nz)]

    def row(coeffs, const=0.0):
        return sum((float(v) * u[k] for k, v in enumerate(coeffs)), ex.const(float(const)))

    system = DaeSystem(
        ode_rhs=tuple(row(np.concatenate([a[i], b[i]])) for i in range(ny)),
        alg_residual=tuple(row(np.concatenate([c[j], d[j]]), e[j]) for j in range(nz)),
        var_names=tuple(f"y{i}" for i in range(ny)) + tuple(f"z{j}" for j in range(nz)),
        y0z0=tuple(np.concatenate([y0, guess]).tolist()),
    )
    return system, exact


def relative_error(seed: int, method: MethodKind) -> float:
    """max_i |u_i - exact_i| / (1 + |exact_i|) / atol at TF."""
    system, exact = linear_dae(seed)
    traj = integrate(system, SolverOptions(tf=TF, atol=ATOL, ntot=NTOT, method=method,
                                           err_denominator="standard"))
    assert traj.status is Status.SUCCESS, traj.message
    return float(np.max(np.abs(traj.final_state - exact) / (1.0 + np.abs(exact)))) / ATOL


@pytest.mark.parametrize("method", list(MethodKind), ids=lambda k: k.value)
def test_linear_index_1_daes_end_within_tolerance_of_the_exact_state(method):
    errors = {seed: relative_error(seed, method) for seed in SEEDS}
    assert max(errors.values()) <= MARGIN * WORST[method], errors
