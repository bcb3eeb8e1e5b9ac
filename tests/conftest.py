import numpy as np
import pytest

from dosmpc import data, lti, mpc, plants, qp


@pytest.fixture(scope="session")
def reactor():
    return plants.batch_reactor(0.1)


@pytest.fixture(scope="session")
def feedthrough_reactor(reactor):
    """The reactor with a nonzero D, so the terms in D u are exercised."""
    return lti.SystemModel(reactor.a, reactor.b, reactor.c,
                           np.array([[0.5, -1.0], [0.25, 2.0]]), dt=reactor.dt)


@pytest.fixture(scope="session")
def clean_record(reactor):
    """Noise-free offline record, certified PE of order 16."""
    return data.collect_offline(reactor, 100, pe_order=16, amplitude=1.0,
                                noise_bound=0.0, seed=7)


@pytest.fixture(scope="session")
def noisy_record(reactor):
    """Record at the package's default working noise level."""
    return data.collect_offline(reactor, 100, pe_order=16, amplitude=0.006,
                                noise_bound=1e-4, seed=1)


@pytest.fixture(scope="session")
def clean_hankel(clean_record):
    return data.HankelPair.from_trajectory(clean_record, 12)


@pytest.fixture(scope="session")
def noisy_hankel(noisy_record):
    return data.HankelPair.from_trajectory(noisy_record, 12)


@pytest.fixture()
def study_config():
    """The experiment-section tuning: L=10, lambda_g=0.1, lambda_h=100,
    R1=1e-4 I, R2=3 I."""
    return mpc.MpcConfig(horizon=10, eta=2, lambda_g=0.1, lambda_h=100.0,
                         v_bar=1e-4, r1=1e-4, r2=3.0, u_max=10.0)


@pytest.fixture()
def study_assembler(clean_hankel, study_config):
    return mpc.MpcAssembler(clean_hankel, study_config)


@pytest.fixture()
def solver(study_assembler):
    """A Solver of ``study_assembler``'s problem."""
    return qp.Solver(study_assembler.problem)


@pytest.fixture(scope="session")
def reactor_continuous():
    return plants.batch_reactor_continuous()


@pytest.fixture(scope="session")
def scalar_model():
    return lti.SystemModel([[0.5]], [[1.0]], [[1.0]], [[0.0]])


def fresh_windows(model, count, length, seed, input_scale=1.0):
    """Simulated noise-free (input, output) windows from random initial states."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        x0 = rng.standard_normal(model.n_x)
        u = rng.uniform(-input_scale, input_scale, (length, model.n_u))
        sim = lti.simulate(model, x0, u)
        out.append((sim.inputs, sim.outputs))
    return out
