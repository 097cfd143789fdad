"""Every function and class in src/ivpoq has a caller outside the tests,
and every name a src or test module imports is used there.

A name defined in src/ivpoq/*.py that no other src line and no
perfbench/*.py file mentions is API only the tests call: test through
the API that stays, or move the fixture into a tests/ helper.  A
re-export in ivpoq/__init__.py is not a caller, and the package
re-exports only what perfbench imports from it.
"""

import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import ivpoq

ROOT = Path(__file__).resolve().parents[1]

# (module, name) pairs that stay in src with only test callers, and why.
ALLOWED = {
    # The exact law of d (and the residual amplitudes) that the tests
    # check sample_d and the dense statevector reference against.
    ("coherent_prover", "d_outcome_law"),
    # The one-sided Hoeffding bound exp(-2 n gap^2) of sequential
    # repetition, whose values and input checks the tests pin.
    ("amplification", "hoeffding_tail"),
    # The affine-mod-prime family's distance from exact pairwise
    # independence, which the tests check is negligible at desk scale.
    ("hashing", "pairwise_bias_bound"),
    # SessionRecord.from_json_dict: a saved record replays to the same
    # verdict, which the tests check through it; a CLI command that
    # decides saved records would be its caller.
    ("verifier", "from_json_dict"),
}


def _unused_names(src: Path, perfbench: Path) -> list[str]:
    texts = {path: path.read_text() for path in sorted(src.glob("*.py")) if path.name != "__init__.py"}
    bench = [line for path in sorted(perfbench.glob("*.py")) for line in path.read_text().splitlines()]
    unused = []
    for path, text in texts.items():
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") or (path.stem, node.name) in ALLOWED:
                continue
            word = re.compile(rf"\b{node.name}\b")
            # Another definition of the same name is not a caller.
            definition = re.compile(rf"^\s*(def|class)\s+{node.name}\b")
            # Mentions inside the definition itself (its docstring, a
            # recursive call) do not count.
            outside = lines[: node.lineno - 1] + lines[node.end_lineno :]
            others = (line for p, other in texts.items() if p != path for line in other.splitlines())
            if not any(word.search(line) and not definition.match(line)
                       for line in (*outside, *others, *bench)):
                unused.append(f"{path.stem}.{node.name}")
    return unused


def test_every_src_name_has_a_caller_outside_the_tests():
    assert _unused_names(ROOT / "src" / "ivpoq", ROOT / "perfbench") == []


# (module, name) imports that the module itself does not use, and why.
ALLOWED_IMPORTS = {
    # perfbench/tracing.py patches adversaries.sample_hash.
    ("adversaries", "sample_hash"),
}


def _unused_imports(folder: Path) -> list[str]:
    unused = []
    for path in sorted(folder.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the package's re-exports
            continue
        tree = ast.parse(path.read_text())
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [alias.asname or alias.name for alias in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in imported
                   if name not in used and (path.stem, name) not in ALLOWED_IMPORTS]
    return unused


# Modules below the provers, and the modules above them that they import nothing from.
_BELOW = ("verifier", "commitment", "hashing", "streams", "bits", "stats")
_ABOVE = {"coherent_prover", "adversaries", "lemma_harness", "amplification", "cli"}


def test_the_verifier_imports_no_prover():
    found = []
    for stem in _BELOW:
        for node in ast.walk(ast.parse((ROOT / "src" / "ivpoq" / f"{stem}.py").read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # "from . import cli" and "from ivpoq import cli" name the module as an alias.
                package = node.module in (None, "ivpoq")
                names = [node.module or ""] + [alias.name for alias in node.names if package]
            else:
                continue
            found += [f"{stem} imports {name}" for name in names if name.split(".")[-1] in _ABOVE]
    assert found == []


def _defs_and_imports(path: Path) -> tuple[set, set]:
    """The def and class names of a module, and the names it imports."""
    defs, imports = set(), set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            imports |= {alias.asname or alias.name for alias in node.names}
    return defs, imports


def test_every_allowlist_entry_is_live():
    # An entry whose name is gone would let a new name of that spelling pass unseen.
    src = ROOT / "src" / "ivpoq"
    stale = [f"ALLOWED {stem}.{name}" for stem, name in sorted(ALLOWED)
             if name not in _defs_and_imports(src / f"{stem}.py")[0]]
    stale += [f"ALLOWED_IMPORTS {stem}.{name}" for stem, name in sorted(ALLOWED_IMPORTS)
              if name not in _defs_and_imports(src / f"{stem}.py")[1]]
    assert stale == []


def test_every_src_import_is_used():
    assert _unused_imports(ROOT / "src" / "ivpoq") == []


def test_every_test_import_is_used():
    assert _unused_imports(ROOT / "tests") == []


def _package_imports(folder: Path) -> set[str]:
    """The names folder/*.py import with "from ivpoq import ...", submodules left out."""
    names = set()
    for path in sorted(folder.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "ivpoq" and node.level == 0:
                names |= {alias.name for alias in node.names}
    return {name for name in names if not (ROOT / "src" / "ivpoq" / f"{name}.py").exists()}


def test_the_package_exports_only_what_perfbench_imports():
    # Every other name has one import path, its module's.
    wanted = sorted(_package_imports(ROOT / "perfbench"))
    assert sorted(ivpoq.__all__) == wanted
    public = [name for name, value in vars(ivpoq).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert sorted(public) == wanted


def _loaded_by(module: str) -> set[str]:
    """The ivpoq submodules a fresh interpreter holds after importing module."""
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.startswith('ivpoq.')))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    return set(ast.literal_eval(out.stdout))


def test_importing_the_package_loads_no_harness_or_cli():
    loaded = _loaded_by("ivpoq")
    assert loaded.isdisjoint({"ivpoq.lemma_harness", "ivpoq.amplification", "ivpoq.cli"}), loaded


def test_importing_the_cli_loads_no_harness_or_amplification():
    # run, completeness, reduce and gl need neither; the commands that do import them
    loaded = _loaded_by("ivpoq.cli")
    assert "ivpoq.cli" in loaded
    assert loaded.isdisjoint({"ivpoq.lemma_harness", "ivpoq.amplification"}), loaded
