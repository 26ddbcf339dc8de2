"""Shared session-scoped fixtures for the test suite.

Everything heavyweight (dataset, statistics, oracle, workload) is built
once per session at SF=0.01 and shared; tests must treat these as
read-only. Code that registers temp tables gets its own oracle and a
``Catalog(dict(catalog.stats))`` copy for their statistics, as the
``harness`` fixture does.
"""
import pytest

from repro.bench.harness import Harness
from repro.core.cost import CostModel, ExecutionSimulator
from repro.core.estimator import PerfectEstimator, PostgresEstimator
from repro.core.stats import Catalog, analyze_pandas
from repro.core.truecard import TrueCardinalityOracle
from repro.imdb import gen, workload

SF = 0.01
SEED = 42


@pytest.fixture(scope="session")
def ds():
    return gen.generate(sf=SF, seed=SEED)


@pytest.fixture(scope="session")
def catalog(ds):
    return analyze_pandas(ds)


@pytest.fixture(scope="session")
def oracle(ds):
    return TrueCardinalityOracle(ds)


@pytest.fixture(scope="session")
def pg_est(catalog):
    return PostgresEstimator(catalog)


@pytest.fixture(scope="session")
def perfect_est(oracle, catalog):
    return PerfectEstimator(17, oracle, catalog)


@pytest.fixture(scope="session")
def cost_model():
    return CostModel()


@pytest.fixture(scope="session")
def sim():
    return ExecutionSimulator()


@pytest.fixture(scope="session")
def specs():
    return workload.job_lite_workload()


@pytest.fixture(scope="session")
def harness(ds, catalog):
    # Re-optimization adds temp-table statistics to the harness's catalog.
    return Harness(ds, Catalog(dict(catalog.stats)))
