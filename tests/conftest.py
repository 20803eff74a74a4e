from pathlib import Path

import pytest

from gitoracle import GitOracle
from mockarchive import MockArchive

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def gpl3_bytes() -> bytes:
    return (DATA_DIR / "gpl-3.0.txt").read_bytes()


@pytest.fixture
def oracle(tmp_path) -> GitOracle:
    return GitOracle(tmp_path / "oracle-repo")


@pytest.fixture(scope="session")
def session_oracle(tmp_path_factory) -> GitOracle:
    # One repo shared by hot loops; git object reuse is harmless here.
    return GitOracle(tmp_path_factory.mktemp("oracle") / "repo")


@pytest.fixture
def archive():
    server = MockArchive()
    yield server
    server.close()


@pytest.fixture
def keep_alive_archive():
    server = MockArchive(keep_alive=True)
    yield server
    server.close()
