"""Documentation consistency: modules and symbols named in the docs exist.

Docs rot silently; these tests import every ``repro.*`` dotted path
mentioned in DESIGN.md / THEORY.md / API.md and check the benchmark and
example files they reference are present.
"""

import importlib
import re
from pathlib import Path


ROOT = Path(__file__).parent.parent
DOC_FILES = [ROOT / "DESIGN.md", ROOT / "docs" / "THEORY.md", ROOT / "docs" / "API.md",
             ROOT / "README.md", ROOT / "EXPERIMENTS.md", ROOT / "docs" / "TUTORIAL.md"]

_MODULE_RE = re.compile(r"`(repro(?:\.[a-z_0-9]+)+)`")
_BENCH_RE = re.compile(r"bench_[a-z_0-9]+\.py")
_EXAMPLE_RE = re.compile(r"examples/([a-z_0-9]+\.py)")


def _doc_text():
    return "\n".join(p.read_text() for p in DOC_FILES if p.exists())


class TestDocReferences:
    def test_doc_files_exist(self):
        for p in DOC_FILES:
            assert p.exists(), f"missing doc {p}"

    def test_mentioned_modules_import(self):
        text = _doc_text()
        seen = sorted(set(_MODULE_RE.findall(text)))
        assert seen, "no repro.* references found — regex broken?"
        for dotted in seen:
            # the reference may be a module or a module.attribute
            try:
                importlib.import_module(dotted)
                continue
            except ImportError:
                pass
            module, _, attr = dotted.rpartition(".")
            mod = importlib.import_module(module)
            assert hasattr(mod, attr), f"doc references missing symbol {dotted}"

    def test_module_map_lists_every_module(self):
        """DESIGN.md §5 names exactly the modules under ``src/repro``
        (the packages' ``__init__.py`` files aside): a line ending in
        ``/`` opens a package, and a line's leading ``*.py`` words are
        its modules."""
        design = (ROOT / "DESIGN.md").read_text()
        block = design.split("## 5. Module map", 1)[1].split("```")[1]
        listed, package = set(), ""
        for line in block.splitlines():
            words = line.split()
            if words and words[0].endswith("/"):
                package = "" if words[0] == "src/repro/" else words[0]
                continue
            for word in words:
                if not word.endswith(".py"):
                    break
                listed.add(package + word)
        src = ROOT / "src" / "repro"
        tree = {
            p.relative_to(src).as_posix()
            for p in src.rglob("*.py")
            if p.name != "__init__.py"
        }
        assert listed == tree, (sorted(listed - tree), sorted(tree - listed))

    def test_mentioned_benchmarks_exist(self):
        bench_dir = ROOT / "benchmarks"
        for name in sorted(set(_BENCH_RE.findall(_doc_text()))):
            assert (bench_dir / name).exists(), f"doc references missing {name}"

    def test_mentioned_examples_exist(self):
        for name in sorted(set(_EXAMPLE_RE.findall(_doc_text()))):
            assert (ROOT / "examples" / name).exists(), f"missing example {name}"

    def test_readme_quickstart_code_runs(self):
        """The README's quickstart snippet must stay executable."""
        readme = (ROOT / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
        assert blocks, "README lost its python quickstart"
        snippet = blocks[0].replace("200_000", "20_000").replace("100_000", "10_000")
        exec(compile(snippet, "<readme>", "exec"), {})
