import tracemalloc

import numpy as np
import pytest

from degen_control.coefficients import (classical_coefficient, constant_drift,
                                        power_coefficient, zero_drift)
from degen_control.mesh import _assembler, build_grid
from degen_control.pde import LinearProblem
from degen_control.semilinear import Nonlinearity, freeze_coefficients, frozen_problem


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


def make_problem(a=None, N=64, M=64, T=0.5, omega=(0.3, 0.9), gamma=1.0,
                 b0=0.0, c0=0.0, y0=None):
    a = a if a is not None else power_coefficient(0.5)
    grid = build_grid(N, gamma)
    drift = zero_drift() if (b0 == 0.0 and c0 == 0.0) else constant_drift(b0, c0)
    if y0 is None:
        y0 = np.sin(np.pi * grid.nodes)
    return LinearProblem(a=a, drift=drift, T=T, omega=omega, grid=grid, M=M, y0=y0)


def time_drift(p, b=None, c=None):
    """p with b(t) and c(t), functions of the (L, 1) times alone, added to
    its b and c: ``frozen_problem`` along zero states of the nonlinearity
    whose factors they are (0 where None), with uncapped factors. So p's
    drift varies in time, and the problem carries its step factors."""
    def factor(f):
        return lambda x, t, s, q: 0.0 if f is None else f(t)
    nl = Nonlinearity(factor(b), factor(c), b_cap=np.inf, c_cap=np.inf)
    return frozen_problem(p, np.zeros((p.M + 1, p.grid.N)), nl)


def frozen_bands(q):
    """The bands of the M step levels of the frozen problem q, all levels at
    once: one ``freeze_coefficients`` of levels 1..M, the levels that the
    steps read, then one ``mesh._assembler`` call on the stacked rows."""
    d, act = q.drift, q.active()
    b, c = freeze_coefficients(q.grid, q.times[1:], d.z[1:], d.nl)
    return _assembler(q.grid, q.a, d.beta)((d.linear.b + b)[:, act], (d.linear.c + c)[:, act])


def heat_problem(N=128, M=256, T=0.1, omega=(0.3, 0.9)):
    grid = build_grid(N, 1.0)
    return LinearProblem(a=classical_coefficient(), drift=zero_drift(), T=T,
                         omega=omega, grid=grid, M=M,
                         y0=np.sin(np.pi * grid.nodes))


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the peak in bytes of the memory that tracemalloc
    traced during the call): numpy's arrays count, BLAS's own buffers not."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak
