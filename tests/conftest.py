"""Shared fixtures: one characterized technology for the whole session."""

import os

import pytest

from repro.devices import CMOSP35, TableModelLibrary, nmos_model, pmos_model
from repro.core import WaveformEvaluator


@pytest.fixture(autouse=True)
def _flight_bundles_from_env():
    """CI forensics hook: ``REPRO_FLIGHT_BUNDLES=DIR`` enables the
    flight view with bundle capture for every test, so a failing solve
    leaves a replayable debug bundle under DIR that the workflow uploads
    as an artifact.  It is switched on per test because tests and CLI
    commands that switch the view off would otherwise leave it off for
    the rest of the session."""
    directory = os.environ.get("REPRO_FLIGHT_BUNDLES")
    if not directory:
        yield
        return
    from repro.obs import FlightConfig, configure_flight, disable_flight

    configure_flight(FlightConfig(enabled=True, capture_bundles=True,
                                  bundle_dir=directory))
    yield
    disable_flight()


@pytest.fixture(scope="session")
def tech():
    return CMOSP35


@pytest.fixture(scope="session")
def library(tech):
    """Session-wide table library (characterization is expensive)."""
    lib = TableModelLibrary(tech)
    lib.get("n")
    lib.get("p")
    return lib


@pytest.fixture(scope="session")
def nmos(tech):
    return nmos_model(tech)


@pytest.fixture(scope="session")
def pmos(tech):
    return pmos_model(tech)


@pytest.fixture(scope="session")
def evaluator(tech, library):
    return WaveformEvaluator(tech, library=library)
