"""The bundled simplex against its frozen copy in ``oracle_bundled``.

Every LP and binary program here has at most ``BUNDLED_MAX_ROWS`` rows. An
LP solved with ``engine="simplex"`` must take the same pivots as the oracle.
A binary program goes through ``reference_solve_ilp``, the cold branch and
bound, once on the bundled simplex and once on the oracle, so every node LP
is checked; the two searches must take the same nodes and pivots. Both
must return the same floats: status, iterations, refactors, nodes and root
iterations equal, objective, dual objective and values equal byte for
byte, values in the same order.
"""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_bundled
from demers import simplexsolver as ss
from demers.lpmodel import LpProblem
from test_lp_golden import golden_problems
from test_simplexsolver import BUNDLED_MAX_ROWS, binary_programs, reference_solve_ilp


def bits(x: float | None) -> bytes | None:
    return None if x is None else struct.pack("<d", x)


def assert_identical(sol: ss.Solution, ref: ss.Solution) -> None:
    assert sol.status is ref.status
    counters = ("iterations", "refactors", "nodes", "root_iterations")
    assert [getattr(sol, k) for k in counters] == [getattr(ref, k) for k in counters]
    assert bits(sol.objective) == bits(ref.objective)
    assert bits(sol.dual_objective) == bits(ref.dual_objective)
    assert list(sol.values) == list(ref.values)
    assert [bits(v) for v in sol.values.values()] == [bits(v) for v in ref.values.values()]


def assert_same_solve(problem: LpProblem) -> None:
    assert problem.num_rows <= BUNDLED_MAX_ROWS
    if problem.num_binaries:
        sol = reference_solve_ilp(problem, ss._solve_simplex)
        ref = reference_solve_ilp(problem, oracle_bundled.solve_lp)
    else:
        sol = ss.solve_lp(problem, engine="simplex")
        ref = oracle_bundled.solve_lp(problem)
    assert_identical(sol, ref)


BOUNDS = [(0.0, math.inf), (-math.inf, math.inf), (-2.0, 3.0), (-math.inf, 4.0),
          (1.5, 1.5), (0.0, 2.5), (3.0, 1.0)]


@st.composite
def random_lps(draw):
    """Small LPs with integer data, every kind of column bound and mixed
    senses; some are infeasible or unbounded."""
    n = draw(st.integers(1, 8))
    p = LpProblem()
    coef = st.integers(-5, 5)
    for i in range(n):
        p.add_var(f"x{i}", *draw(st.sampled_from(BOUNDS)))
        p.add_objective(f"x{i}", draw(coef))
    for _ in range(draw(st.integers(1, 12))):
        coeffs = {f"x{i}": draw(coef) for i in range(n)}
        p.add_constraint(coeffs, draw(st.sampled_from(["<=", ">=", "="])),
                         draw(st.integers(-10, 10)))
    return p


@st.composite
def cartogram_models(draw):
    """TOP, ORG and CNT models of jittered 2x2 to 3x3 grids at k = 1, weak
    and strong, from the reduced constraint set as ``cli.run`` builds them."""
    from demers.lpmodel import ModelSpec, ObjectiveKind, build_cnt_ilp, build_single_lp
    from demers.mapdata import compute_epsilon, scale_weights
    from demers.sepconstraints import Setting, derive_constraints, reduce_transitive
    from demers.synth import grid_map, lognormal_weights

    cols, rows = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    seed = draw(st.integers(0, 10_000))
    kind = draw(st.sampled_from(list(ObjectiveKind)))
    setting = draw(st.sampled_from([Setting.WEAK, Setting.STRONG]))
    g = grid_map(cols, rows, jitter=draw(st.sampled_from([0.0, 0.15, 0.3])), seed=seed)
    table = scale_weights(lognormal_weights(g, k=1, seed=seed), g)
    cs = reduce_transitive(derive_constraints(g, compute_epsilon(table, g), setting))
    build = build_cnt_ilp if kind is ObjectiveKind.CNT else build_single_lp
    return build(g, table.function_sides(0), cs, ModelSpec(kind, setting)).problem


@settings(max_examples=150, deadline=None)
@given(random_lps())
def test_random_lps_solve_as_the_oracle_does(problem):
    assert_same_solve(problem)


@settings(max_examples=150, deadline=None)
@given(binary_programs())
def test_binary_programs_solve_as_the_oracle_does(problem):
    assert_same_solve(problem)


@settings(max_examples=40, deadline=None)
@given(cartogram_models())
def test_cartogram_models_solve_as_the_oracle_does(problem):
    assert_same_solve(problem)


@pytest.mark.parametrize("stem", sorted(
    stem for stem, problem in golden_problems().items()
    if problem.num_rows <= BUNDLED_MAX_ROWS
))
def test_golden_models_solve_as_the_oracle_does(stem):
    assert_same_solve(golden_problems()[stem])
