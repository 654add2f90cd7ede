"""The package resolves its public names on first access (PEP 562).

``import gradedbrauer`` loads no submodule; each name of ``__all__`` is
imported from its defining module when it is first read, and is the
same object as there.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gradedbrauer


def test_import_loads_no_submodule():
    src = str(Path(gradedbrauer.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, gradedbrauer\n"
         "print(sorted(m for m in sys.modules if m.startswith('gradedbrauer')))"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "['gradedbrauer']"


@pytest.mark.parametrize("name", gradedbrauer.__all__)
def test_every_public_name_is_its_defining_modules_object(name):
    value = getattr(gradedbrauer, name)
    module = sys.modules[value.__module__]
    assert module.__name__.startswith("gradedbrauer.")
    assert getattr(module, name) is value


def test_clifford_stays_the_function_once_its_module_is_imported():
    import gradedbrauer.clifford  # noqa: F401 - the submodule of the same name
    from gradedbrauer.clifford import clifford
    assert gradedbrauer.clifford is clifford


def test_dir_star_import_and_unknown_names():
    assert set(gradedbrauer.__all__) <= set(dir(gradedbrauer))
    assert len(gradedbrauer.__all__) == 54
    namespace: dict = {}
    exec("from gradedbrauer import *", namespace)
    assert {name: namespace[name] for name in gradedbrauer.__all__} == {
        name: getattr(gradedbrauer, name) for name in gradedbrauer.__all__}
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        gradedbrauer.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from gradedbrauer import no_such_name", {})
