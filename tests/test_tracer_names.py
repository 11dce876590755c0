"""The benchmark tracer patches `hyperb` functions by name from outside the
package; a renamed or deleted function must fail here, not only in a traced
benchmark run."""

import importlib
import importlib.util
import types
from pathlib import Path

import pytest

import hyperb
import hyperb.cli  # noqa: F401  (the tracer patches cli.main)

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module_attrs():
    modules = [m for m in vars(hyperb).values() if isinstance(m, types.ModuleType)]
    return {
        (m.__name__, attr): value for m in [hyperb, *modules] for attr, value in vars(m).items()
    }


def test_traced_names_resolve(tracer):
    for mod_name, fname, _ in tracer.TIMED + tracer.COUNTED:
        module = importlib.import_module(f"hyperb.{mod_name}")
        assert callable(getattr(module, fname, None)), f"hyperb.{mod_name}.{fname}"


def test_install_uninstall_restores_every_attribute(tracer):
    before = _module_attrs()
    t = tracer.Tracer("test", hyperb)
    t.install()
    try:
        assert t._patches  # something was patched
        assert _module_attrs() != before
    finally:
        t.uninstall()
    after = _module_attrs()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
