"""The built package carries every data file the source tree has.

setuptools copies only the ``.py`` modules plus what
``[tool.setuptools.package-data]`` names, so a data file no glob covers
(say, a scenario library document) would silently be missing from every
non-editable install.
"""

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


def test_every_data_file_matches_a_package_data_glob():
    with open(ROOT / "pyproject.toml", "rb") as f:
        config = tomllib.load(f)
    globs = config["tool"]["setuptools"]["package-data"]["repro"]
    shipped = {path for pattern in globs for path in PACKAGE.glob(pattern)}
    data = {path for path in PACKAGE.rglob("*")
            if path.is_file() and path.suffix not in (".py", ".pyc")
            and "__pycache__" not in path.parts}
    assert data, "expected data files under src/repro"
    assert sorted(str(p.relative_to(PACKAGE)) for p in data - shipped) == []
