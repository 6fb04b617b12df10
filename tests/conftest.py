import json
from importlib import resources

import pytest

from spsqkd import ChannelParams, PhotonDistribution

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


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def bundled_sources() -> dict[str, PhotonDistribution]:
    """Name -> distribution of each bundled source file fixtures/<name>.json."""
    root = resources.files("spsqkd").joinpath("fixtures")
    return {name: PhotonDistribution.from_dict(
                json.loads(root.joinpath(f"{name}.json").read_text()))
            for name in ("bare-s1", "bare-s2", "bare-s3", "perfect", "sps1",
                         "sps2")}


@pytest.fixture(scope="session")
def channel() -> ChannelParams:
    """Default receiver at zero extra channel attenuation."""
    return ChannelParams(loss_db=0.0, eta_bob=0.045, p_dc=2e-7, e_d=0.033)


@pytest.fixture(scope="session")
def sps1() -> PhotonDistribution:
    return PhotonDistribution(p0=0.359, p1=0.529, p2=0.112)


@pytest.fixture(scope="session")
def sps2() -> PhotonDistribution:
    return PhotonDistribution(p0=0.115, p1=0.458, p2=0.427)


@pytest.fixture(scope="session")
def bare_decoy() -> PhotonDistribution:
    return PhotonDistribution(p0=0.9023, p1=0.096, p2=0.0017)


@pytest.fixture(scope="session")
def bare_signal() -> PhotonDistribution:
    return PhotonDistribution(p0=0.675, p1=0.296, p2=0.029)
