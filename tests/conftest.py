from importlib import resources

import pytest

from spsqkd import ChannelParams, PhotonDistribution, analysis, cli

# All shared fixtures are frozen dataclasses, so session scope is safe.

# One line per acceptance criterion, echoed after the test summary so a
# full run always ends with the verdict list regardless of capture mode.
_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def criterion():
    """Record a pass/fail verdict line, then enforce it."""

    def check(tag: str, ok: bool, detail: str) -> None:
        line = f"criterion {tag}: {'PASS' if ok else 'FAIL'}  {detail}"
        _ACCEPTANCE_LINES.append(line)
        assert ok, line

    return check


@pytest.fixture(autouse=True)
def fresh_reference_memo():
    """Each test starts without the tagged-laser references that
    ``analysis.hp_threshold`` keeps, so its counts and patches are its own."""
    analysis._reference_loss.cache_clear()


@pytest.fixture(scope="session")
def first_error():
    """The (type, message) of the first exception that a sequence of calls
    raises, or None: how an array form's error is compared with a loop of
    scalar calls over the same entries."""

    def first(calls) -> tuple[type, str] | None:
        for call in calls:
            try:
                call()
            except Exception as exc:
                return type(exc), str(exc)
        return None

    return first


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def _bundled(name: str) -> str:
    # the path of the bundled fixtures/<name>.json, whatever
    # QKD_FIXTURES_DIR says
    return str(resources.files("spsqkd").joinpath("fixtures", f"{name}.json"))


@pytest.fixture(scope="session")
def bundled_sources() -> dict[str, PhotonDistribution]:
    """Name -> distribution of each bundled source file fixtures/<name>.json."""
    return {name: cli.load_source(_bundled(name))
            for name in ("bare-s1", "bare-s2", "bare-s3", "perfect", "sps1",
                         "sps2")}


@pytest.fixture(scope="session")
def channel() -> ChannelParams:
    """Default receiver at zero extra channel attenuation."""
    return cli.load_channel(_bundled("channel"))


@pytest.fixture(scope="session")
def sps1(bundled_sources) -> PhotonDistribution:
    return bundled_sources["sps1"]


@pytest.fixture(scope="session")
def sps2(bundled_sources) -> PhotonDistribution:
    return bundled_sources["sps2"]


@pytest.fixture(scope="session")
def bare_decoy(bundled_sources) -> PhotonDistribution:
    return bundled_sources["bare-s1"]


@pytest.fixture(scope="session")
def bare_signal(bundled_sources) -> PhotonDistribution:
    return bundled_sources["bare-s2"]
