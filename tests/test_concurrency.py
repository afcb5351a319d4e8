"""kernel.both and the solver halves it runs: the same answers on two
threads as on one, errors in the sequential order, and a forked child that
still solves."""

import multiprocessing
import threading
import time

import numpy as np
import pytest

import narekit as nk
from narekit import kernel, sda
from narekit.errors import Breakdown, InitSingular
from conftest import carved_mnare


@pytest.fixture
def two_cpus(monkeypatch):
    """Let both() take its concurrent path on any host."""
    monkeypatch.setattr(kernel, "_cpus", lambda _: range(2))


@pytest.fixture
def concurrent(monkeypatch, two_cpus):
    monkeypatch.setattr(kernel, "PAR_MIN_DIM", 1)


class TestBoth:
    def test_below_threshold_runs_in_the_caller(self, two_cpus):
        where = threading.current_thread
        assert kernel.both(where, where, kernel.PAR_MIN_DIM - 1) == (where(),) * 2

    def test_at_threshold_second_runs_on_the_worker(self, two_cpus):
        first, second = kernel.both(threading.current_thread, threading.current_thread,
                                    kernel.PAR_MIN_DIM)
        assert first is threading.current_thread() and second is not first

    def test_one_cpu_runs_in_the_caller(self, monkeypatch):
        monkeypatch.setattr(kernel, "_cpus", lambda _: range(1))
        where = threading.current_thread
        assert kernel.both(where, where, 10 ** 6) == (where(),) * 2

    def test_second_runs_under_the_callers_error_state(self, concurrent):
        big = np.array([1e300])
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            kernel.both(lambda: None, lambda: big * big, 1)
        assert kernel.both(lambda: 1, lambda: 2, 1) == (1, 2)

    def test_first_error_wins_after_second_finishes(self, concurrent):
        done = []

        def first():
            raise KeyError("first")

        def second():
            time.sleep(0.02)
            done.append(True)
            raise ValueError("second")

        with pytest.raises(KeyError):
            kernel.both(first, second, 1)
        assert done == [True]
        with pytest.raises(ValueError):
            kernel.both(lambda: None, second, 1)
        assert kernel.both(lambda: 1, lambda: 2, 1) == (1, 2)


def _run_both_solvers(p):
    """Everything the two solvers report that the halves could change."""
    records = []
    plain = nk.sda_solve(p, nk.SdaConfig(trace=records.append))
    result, cs, plan, shifted = nk.sushi_solve(p, nk.SushiOptions(trace=records.append))
    return [plain.X, plain.Y, plain.steps, plain.residual, plain.dual_residual,
            plain.tail_from, result.X, result.Y, result.steps, result.residual,
            result.dual_residual, shifted.X, shifted.residual, plan.s,
            plan.rationale["polish_doublings"], cs.inv_iter_steps, records]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("problem", [
    lambda: nk.transport_problem(nk.TransportSpec.near_critical(8, 1e-5)),
    lambda: nk.transport_problem(nk.TransportSpec.near_critical(32, 1e-3)),
    lambda: carved_mnare(12, 7, 1e-3, seed=2),
], ids=["transport8", "transport32", "random12x7"])
def test_concurrent_halves_give_bitwise_equal_results(monkeypatch, two_cpus,
                                                       problem, dtype):
    p = problem().astype(dtype)
    runs = []
    for threshold in (1, 10 ** 9):
        monkeypatch.setattr(kernel, "PAR_MIN_DIM", threshold)
        runs.append(_run_both_solvers(p))
    for got, ref in zip(*runs):
        if isinstance(ref, np.ndarray):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
        else:
            assert got == ref


class TestErrorOrder:
    def test_step_reports_the_gh_breakdown(self, monkeypatch, concurrent):
        # the I - HG half fails first in time; the I - GH half's error wins
        def failing(mat, step):
            if len(mat) == 3:
                time.sleep(0.02)
            raise Breakdown("injected", {"step": step, "order": len(mat)})

        rng = np.random.default_rng(5)
        s = sda.SdaState(E=np.eye(3), F=np.eye(2), G=rng.random((3, 2)) / 9,
                         Hm=rng.random((2, 3)) / 9)
        monkeypatch.setattr(sda, "_guarded_factor", failing)
        with pytest.raises(Breakdown) as err:
            nk.sda_step(s)
        assert err.value.diagnostics["order"] == 3
        monkeypatch.undo()
        assert nk.sda_step(s).step == 1

    @pytest.mark.parametrize("a, b, c, d, which", [
        (-1.0, 0.0, 0.0, -1.0, "D+gamma*I"),  # D + I = A + I = 0
        (0.0, 1.0, 1.0, 0.0, "V_gamma"),      # V = W = 1 - 1 = 0
    ])
    def test_init_reports_the_first_singular_matrix(self, concurrent, a, b, c, d, which):
        p = nk.NareProblem(A=[[a]], B=[[b]], C=[[c]], D=[[d]])
        with pytest.raises(InitSingular) as err:
            nk.sda_init(p, gamma=1.0)
        assert err.value.diagnostics["which"] == which
        assert nk.sda_init(nk.NareProblem(A=[[2.0]], B=[[1.0]], C=[[1.0]], D=[[2.0]]),
                           gamma=1.0).step == 0


def _solve_in_child():
    p = nk.transport_problem(nk.TransportSpec.near_critical(128, 1e-3))
    if not nk.sda_solve(p).converged:
        raise SystemExit(1)


def test_forked_child_solves_after_concurrent_solve(two_cpus):
    # the child has no worker thread; a pool inherited from the parent
    # would queue the child's first half forever
    p = nk.transport_problem(nk.TransportSpec.near_critical(128, 1e-3))
    assert nk.sda_solve(p).converged and kernel._worker.cache_info().currsize == 1
    child = multiprocessing.get_context("fork").Process(target=_solve_in_child)
    child.start()
    try:
        child.join(timeout=60)
        assert not child.is_alive() and child.exitcode == 0
    finally:
        child.kill()
        child.join()
