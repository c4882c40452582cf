import importlib

import pytest


@pytest.mark.parametrize(
    "package",
    [
        "hometwin",
        "hometwin.activity",
        "hometwin.ingestion",
        "hometwin.posture",
        "hometwin.simulate",
    ],
)
def test_star_import_resolves_every_export(package):
    module = importlib.import_module(package)
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace)
