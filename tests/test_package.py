"""The package surface and the code the README shows.

Each module's ``__all__`` is the one list of its public names, and the
package re-exports all of them; the README's fenced ``python`` blocks run
here so that the documented API cannot drift from the code.
"""

import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import liulogit
from liulogit import errors

from _util import SRC, src_env

README = Path(__file__).resolve().parents[1] / "README.md"

# the submodules that declare a public surface (cli declares none)
PUBLIC_MODULES = [
    module
    for module in (
        importlib.import_module(f"liulogit.{info.name}")
        for info in pkgutil.iter_modules(liulogit.__path__)
    )
    if hasattr(module, "__all__")
]


def test_package_names_are_unique():
    assert len(liulogit.__all__) == len(set(liulogit.__all__))


@pytest.mark.parametrize("module", PUBLIC_MODULES, ids=lambda m: m.__name__)
def test_module_names_resolve_on_package(module):
    for name in module.__all__:
        assert name in liulogit.__all__, name
        assert getattr(liulogit, name) is getattr(module, name), name


def test_errors_all_covers_every_exception():
    defined = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type)
        and issubclass(obj, errors.LiulogitError)
        and obj.__module__ == errors.__name__
    }
    assert defined == set(errors.__all__)


def test_readme_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert blocks
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"{README.name} python block {i}", "exec"), namespace)


def test_cli_start_up_loads_no_scipy():
    # scipy is a test-only dependency; a fresh interpreter shows what
    # `import liulogit.cli` loads, whatever this process has imported
    code = (
        "import sys, liulogit.cli\n"
        "print(liulogit.cli.__file__)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=src_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    module_file, scipy_modules = result.stdout.splitlines()
    assert Path(module_file).resolve().is_relative_to(SRC)
    assert scipy_modules == "[]"
