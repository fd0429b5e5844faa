"""Documentation quality gates: every module and public symbol documented,
and every `repro.…` name the docs cite still names something."""

import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import repro

SRC = pathlib.Path(repro.__file__).parent


def all_modules():
    names = ["repro"]
    for info in pkgutil.walk_packages([str(SRC)], prefix="repro."):
        if info.name.endswith("__main__"):
            continue  # importing it would execute the CLI
        names.append(info.name)
    return sorted(names)


@pytest.mark.parametrize("name", all_modules())
def test_module_has_docstring(name):
    module = importlib.import_module(name)
    assert module.__doc__ and module.__doc__.strip(), f"{name} undocumented"


@pytest.mark.parametrize("name", all_modules())
def test_public_classes_and_functions_documented(name):
    module = importlib.import_module(name)
    for attr_name in dir(module):
        if attr_name.startswith("_"):
            continue
        obj = getattr(module, attr_name)
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != name:
            continue  # re-export; documented at its home
        assert obj.__doc__ and obj.__doc__.strip(), (
            f"{name}.{attr_name} has no docstring"
        )


def test_readme_mentions_core_commands():
    readme = (SRC.parent.parent / "README.md").read_text()
    for needle in ("pytest tests/", "benchmarks/", "quickstart", "DESIGN.md"):
        assert needle in readme


def test_readme_architecture_lists_every_top_level_module():
    readme = (SRC.parent.parent / "README.md").read_text()
    block = readme.split("## Architecture")[1].split("```")[1]
    listed = {line.split()[0] for line in block.splitlines() if line.startswith("repro.")}
    shipped = {
        f"repro.{info.name}"
        for info in pkgutil.iter_modules([str(SRC)])
        if info.name != "__main__"
    }
    assert listed == shipped


def test_design_doc_covers_every_bench():
    design = (SRC.parent.parent / "DESIGN.md").read_text()
    bench_dir = SRC.parent.parent / "benchmarks"
    for bench in bench_dir.glob("test_*.py"):
        if bench.name == "test_perf_micro.py":
            continue  # listed as the perf-guardrail row
        assert bench.name in design, f"{bench.name} missing from DESIGN.md"


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` names an importable module or an attribute of one."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


@pytest.mark.parametrize("doc", ["README.md", "DESIGN.md", "PAPER.md"])
def test_dotted_names_in_docs_resolve(doc):
    text = (SRC.parent.parent / doc).read_text()
    stale = [
        f"{doc}:{text.count(chr(10), 0, match.start()) + 1}: {match[1]}"
        for match in re.finditer(r"`(repro(?:\.[A-Za-z_]\w*)+)", text)
        if not _resolves(match[1])
    ]
    assert stale == [], "backticked names that name nothing: " + ", ".join(stale)
