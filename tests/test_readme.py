"""The library example in README.md runs as written."""
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})


def test_layout_table_names_every_module():
    section = README.read_text(encoding="utf-8").split("## Layout", 1)[1].split("\n## ", 1)[0]
    named = {name for row in re.findall(r"^\| *([^|]*)\|", section, re.M) for name in re.findall(r"`kurtdeconv\.(\w+)`", row)}
    modules = {path.stem for path in (README.parent / "src" / "kurtdeconv").glob("*.py")} - {"__init__"}
    assert named == modules
