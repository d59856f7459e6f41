#!/usr/bin/env python
"""Docstring-coverage lint for the public API surface.

Walks the target packages with ``ast`` (no imports, so it is safe on any
interpreter and needs no dependencies) and requires a docstring on:

* every module,
* every public class (name not starting with ``_``),
* every public function, and every public method of a public class
  (including ``__init__`` when it takes parameters beyond ``self``).

Private names (leading underscore) and dunders other than ``__init__``
are exempt.  Exit status is non-zero when anything is missing, so CI can
gate on it; the default targets are the packages held at 100%:
``repro.llm``, ``repro.runtime``, ``repro.reliability``, ``repro.serving``,
``repro.obs``, ``repro.routing``, plus the fused kernels and ops shared
by training and inference (``repro.nn.fastpath``, ``repro.nn.functional``),
the optimizers (``repro.nn.optim``), the MatchGPT and ZeroER matchers
(``repro.matchers.matchgpt``, ``repro.matchers.zeroer``), the record
serialisation and entity world the simulated LLM reads
(``repro.data.serialize``, ``repro.data.world``), the trace-report script
and the obs/inference/routing benchmarks.

Usage::

    python scripts/check_docstrings.py                 # default targets
    python scripts/check_docstrings.py src/repro/eval  # explicit targets
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

#: Packages that must stay at 100% docstring coverage in CI.
DEFAULT_TARGETS = (
    "src/repro/llm",
    "src/repro/runtime",
    "src/repro/reliability",
    "src/repro/serving",
    "src/repro/obs",
    "src/repro/routing",
    "src/repro/verify",
    "src/repro/nn/fastpath.py",
    "src/repro/nn/functional.py",
    "src/repro/nn/optim.py",
    "src/repro/matchers/matchgpt.py",
    "src/repro/matchers/zeroer.py",
    "src/repro/data/serialize.py",
    "src/repro/data/world.py",
    "benchmarks/bench_inference.py",
    "benchmarks/bench_obs.py",
    "benchmarks/bench_routing.py",
    "benchmarks/bench_resilience.py",
    "scripts/trace_report.py",
)


def _needs_docstring_init(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Whether an ``__init__`` is substantial enough to document.

    A bare ``__init__(self)`` or a dataclass-style absence is fine; one
    that accepts configuration must say what the configuration means.
    """
    args = node.args
    n_params = (
        len(args.posonlyargs) + len(args.args) + len(args.kwonlyargs)
        + (1 if args.vararg else 0) + (1 if args.kwarg else 0)
    )
    return n_params > 1  # beyond self


def _is_public_function(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Public = not underscore-private; dunders count only for __init__."""
    name = node.name
    if name == "__init__":
        return _needs_docstring_init(node)
    if name.startswith("_"):
        return False
    return True


def check_file(path: Path) -> list[str]:
    """Return 'path:line: message' entries for every missing docstring."""
    tree = ast.parse(path.read_text(), filename=str(path))
    missing: list[str] = []

    if ast.get_docstring(tree) is None:
        missing.append(f"{path}:1: module has no docstring")

    def visit_body(body: list[ast.stmt], owner: str | None) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                if node.name.startswith("_"):
                    continue
                label = f"class {node.name}" if owner is None else f"{owner}.{node.name}"
                if ast.get_docstring(node) is None:
                    missing.append(f"{path}:{node.lineno}: {label} has no docstring")
                visit_body(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not _is_public_function(node):
                    continue
                label = node.name if owner is None else f"{owner}.{node.name}"
                if ast.get_docstring(node) is None:
                    missing.append(
                        f"{path}:{node.lineno}: {label}() has no docstring"
                    )

    visit_body(tree.body, None)
    return missing


def count_documentable(path: Path) -> int:
    """How many docstring sites ``check_file`` inspects in one file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    count = 1  # the module itself

    def visit_body(body: list[ast.stmt], top: bool) -> None:
        nonlocal count
        for node in body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                count += 1
                visit_body(node.body, False)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_public_function(node):
                    count += 1

    visit_body(tree.body, True)
    return count


def main(argv: list[str] | None = None) -> int:
    """Lint the targets; print misses and a coverage line; 0 iff clean."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "targets", nargs="*", default=list(DEFAULT_TARGETS),
        help="files or directories to lint (default: the CI-gated packages)",
    )
    args = parser.parse_args(argv)

    files: list[Path] = []
    for target in args.targets:
        path = Path(target)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
        else:
            print(f"error: {target} is not a python file or directory")
            return 2

    missing: list[str] = []
    total = 0
    for file in files:
        missing.extend(check_file(file))
        total += count_documentable(file)

    for line in missing:
        print(line)
    documented = total - len(missing)
    pct = 100.0 * documented / total if total else 100.0
    print(
        f"docstring coverage: {documented}/{total} public sites "
        f"({pct:.1f}%) across {len(files)} files"
    )
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
