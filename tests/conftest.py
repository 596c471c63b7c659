import pytest
from hypothesis import settings

from nttmul import build_params, pipesim

# Property tests share small, noisy hosts: no per-example deadline, and a fixed
# example budget so the suite's run time does not drift.
settings.register_profile("nttmul", deadline=None, max_examples=200)
settings.load_profile("nttmul")

FIXED_M = 1_049_089


@pytest.fixture(scope="session")
def p17_4():
    return build_params(17, 4)


@pytest.fixture(scope="session")
def p17_8():
    return build_params(17, 8)


@pytest.fixture(scope="session")
def fixed_params():
    # one derivation per size at the production modulus, shared session-wide
    return {n: build_params(FIXED_M, n) for n in (4, 8, 16, 32, 64, 128, 256)}


@pytest.fixture(autouse=True)
def cold_schedule_proofs():
    # a config proves its N's schedule once per process: every test starts
    # with no N proved, so one that patches the stages and then builds a
    # config meets a proof that runs, whatever earlier tests built
    pipesim._schedule_proof.cache_clear()
