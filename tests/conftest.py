"""Test configuration: property tests run derandomized and without deadlines,
so they replay the same examples on every run and do not flake when a slow
host stretches one example past hypothesis's default 200 ms deadline. The
``caps_built`` fixture lists every partition ``Caps`` built while it is on."""
import pytest
from hypothesis import settings

from sigmasum.family import Caps

settings.register_profile("sigmasum", derandomize=True, deadline=None)
settings.load_profile("sigmasum")


@pytest.fixture
def caps_built(monkeypatch):
    built = []

    def counted(self, _check=Caps.__post_init__):
        built.append(self)
        _check(self)

    monkeypatch.setattr(Caps, "__post_init__", counted)
    return built
