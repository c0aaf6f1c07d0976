"""The four workloads: inputs made from the seed, the timed operation and
the checks of its outputs.

A workload's constructor is its own set-up. `ops` lists the inputs of one
round, `run` performs one operation, and `check` returns (name, gap, gate)
for every check over one round's outputs (None for an operation that
raised). The package is reached through its modules, so that a traced
run sees the wrappers the tracer puts there.
"""
import numpy as np

from cornerflow import kernel, mild, oracle
from cornerflow.grid import GridFunction, corner_function, symmetric_grid

import checks

# The grid of the solves: the default half-width 40 and 8192 intervals
# take 16-38 s a solve, more than one run can spend. Half the width at a
# quarter of the intervals keeps the iteration counts (1 to 11) and the
# regime split of the default grid, at 3-8 s a solve.
HALF_WIDTH, INTERVALS = 20.0, 2048
TOL = 1e-10
REFERENCE = (0.1, 0.1)
# The march runs on the default MarchConfig grid to t = 1 with dt_max
# raised from 2e-5 to 5e-5: 20 000 steps in place of 50 000, same work a
# step, and the oracle gap drops from 4.7e-7 to 4.4e-7.
MARCH_T, MARCH_DT = 1.0, 5e-5


def bench_grid():
    return symmetric_grid(HALF_WIDTH, INTERVALS)


def solve(corner, table):
    return mild.solve_similarity_profile(mild.CornerData(*corner), tol=TOL,
                                         table=table, xs=bench_grid())


class Solve:
    """Picard solves over a seeded corner set closed under (A,B) -> (B,A).

    It holds the reference corner, a seeded pair (a, b), (b, a) with
    |a| = 0.2 and |b| <= 0.06 (7 iterations each, whatever the seed) and
    a seeded line (c, -c), (-c, c) (1 iteration each).
    """
    name = "solve"

    def __init__(self, table, seed):
        rng = np.random.default_rng(seed)
        a = float(0.2 * rng.choice((-1.0, 1.0)))
        b = float(rng.uniform(-0.06, 0.06))
        c = float(rng.uniform(0.05, 0.25) * rng.choice((-1.0, 1.0)))
        self.ops = [REFERENCE, (a, b), (b, a), (c, -c), (-c, c)]
        self.table = table

    def run(self, corner):
        return solve(corner, self.table)

    def check(self, outs):
        got = dict(zip(self.ops, outs))
        gaps = []
        for (A, B), p in got.items():
            if p is None:
                continue
            gaps.append(("converged", p.final_residual if p.converged
                         else np.inf, TOL))
            if got.get((B, A)) is not None:
                gaps.append(("reflection", checks.reflection_gap(
                    p.psi.ys, got[(B, A)].psi.ys), checks.REFLECTION_GATE))
            if A == -B:
                gaps.append(("linear", checks.linear_gap(p.psi.ys, A),
                             checks.LINEAR_GATE))
        return gaps


class _Reconstruct:
    """reconstruct_U of the reference profile at t_j = t0 sigma^j, j = 0..3.

    Consecutive t form the self-similarity pairs. The t list is fixed,
    since the cost of a reconstruction turns on t; the seed picks the
    sign of the corner, (0.1, 0.1) or (-0.1, -0.1), which costs the same.
    """
    t0 = sigma = None

    def __init__(self, table, seed):
        sign = np.random.default_rng(seed).choice((-1.0, 1.0))
        self.corner = (float(sign * REFERENCE[0]), float(sign * REFERENCE[1]))
        self.ops = [self.t0 * self.sigma ** j for j in range(4)]
        self.table = table
        self.profile = solve(self.corner, table)

    def run(self, t):
        return mild.reconstruct_U(self.profile, t, self.table)

    def check(self, outs):
        psi = self.profile.psi
        gaps = []
        for t, sol in zip(self.ops, outs):
            if sol is not None:
                gaps.append(("slope", checks.slope_gap(
                    sol.U.xs, sol.U.ys, t, psi.xs, psi.ys, *self.corner),
                    checks.SLOPE_GATE))
        for (t1, s1), (t2, s2) in zip(zip(self.ops, outs),
                                      zip(self.ops[1:], outs[1:])):
            if s1 is not None and s2 is not None:
                gaps.append(("self-similarity", checks.self_similarity_gap(
                    s1.U.xs, s1.U.ys, s2.U.ys, t2 / t1),
                    checks.SELF_SIMILARITY_GATE))
        return gaps


class ReconstructEarly(_Reconstruct):
    """t from 1e-2 to 1e-1: the skew regime takes nearly all the time."""
    name = "reconstruct-early"
    t0, sigma = 1e-2, 10.0 ** (1.0 / 3.0)


class ReconstructLate(_Reconstruct):
    """t from 10 to 1e4: nearly every node takes the padded FFT branch."""
    name = "reconstruct-late"
    t0, sigma = 10.0, 10.0


class OracleMarch:
    """time_march of the mollified reference corner to t = 1.

    The reference is mild + S(t)[mollified - corner], built in set-up
    from the reference profile. The seed changes nothing here: the gate is
    set for this corner.
    """
    name = "oracle-march"

    def __init__(self, table, seed):
        A, B = REFERENCE
        self.cfg = oracle.MarchConfig(A, B, dt_max=MARCH_DT)
        xs = self.cfg.xs
        self.u0 = self.cfg.mollified_corner()
        U = mild.reconstruct_U(solve(REFERENCE, table), MARCH_T, table,
                               xs=xs).U.ys
        bump = GridFunction(xs, self.u0.ys - corner_function(A, B, xs).ys,
                            0.0, 0.0, "constant")
        self.reference = U + kernel.apply_semigroup(bump, MARCH_T, 0,
                                                    table).ys
        self.duhamel = U - kernel.corner_height(A, B, MARCH_T, table, xs).ys
        self.gate = checks.ORACLE_SHARE * float(
            np.max(np.abs(checks.inner(self.duhamel))))
        self.ops = [MARCH_T]

    def run(self, t):
        return oracle.time_march(self.u0, self.cfg, [t])[0]

    def check(self, outs):
        return [("oracle", checks.oracle_gap(out.ys, self.reference),
                 self.gate) for out in outs if out is not None]


WORKLOADS = {cls.name: cls for cls in
             (Solve, ReconstructEarly, ReconstructLate, OracleMarch)}
