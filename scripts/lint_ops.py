#!/usr/bin/env python
"""Static guards for ``src/repro``: tape construction and console output.

1. The op registry is the single door into the autodiff tape.  Greps
   ``src/repro`` for hand-rolled tape construction outside ``autodiff/``
   — anonymous ``_backward`` closures, direct ``_parents``/``_node``
   wiring, ``OpNode(...)`` instantiation, the retired ``Tensor._make``,
   or mutation of the ``registered_ops()`` view — so new code cannot
   bypass ``apply()``/``@register_op`` (and with it the gradient-check
   sweep, the hooks, and the freeing policy, which all assume the
   registry describes every op on the tape).

2. Library code must not ``print()``.  Progress and diagnostics route
   through the event sink (``repro.obs``) so they land in the JSONL run
   trace and the console formatter together; bare prints are allowed only
   in CLI entry points (``cli.py``, the experiment-module ``main()``
   files) and the console formatter itself (``obs/console.py``).  The
   check is AST-based: ``print(`` inside docstrings or comments does not
   trip it.

3. Every registered :class:`~repro.tasks.registry.TaskSpec` must be
   complete: loader factory, step function, non-empty metric bundle,
   model construction/rebuild, a full serving contract (singular/plural
   keys, batch policy, postprocess, body_extra), and a unique CLI
   inference subcommand.  A half-declared task would otherwise only fail
   at runtime deep inside the trainer, the HTTP server, or argparse.

Run directly (exit 1 on violations) or via ``tests/test_op_registry.py``,
``tests/test_obs.py``, and ``tests/test_task_registry.py``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"

# Each pattern marks tape internals that only autodiff/ may touch.
FORBIDDEN = [
    (re.compile(r"\._backward\b"), "anonymous _backward closure wiring"),
    (re.compile(r"\b_backward\s*="), "anonymous _backward closure wiring"),
    (re.compile(r"\._parents\b"), "direct _parents access"),
    (re.compile(r"\._node\b"), "direct _node access"),
    (re.compile(r"\bTensor\._make\b"), "retired Tensor._make constructor"),
    (re.compile(r"\bOpNode\("), "direct OpNode construction"),
    (re.compile(r"registered_ops\(\)\s*(\[[^\]]*\]\s*=[^=]"
                r"|\.\s*(pop|popitem|update|clear|setdefault)\b)"),
     "registered_ops() mutation (use @register_op)"),
    (re.compile(r"\bdel\s+registered_ops\(\)"),
     "registered_ops() mutation (use @register_op)"),
]


def find_violations(src: Path = SRC) -> List[Tuple[str, int, str, str]]:
    """Return ``(path, line_no, reason, line)`` for every offending line."""
    violations = []
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(REPO_ROOT)
        if "autodiff" in rel.parts:
            continue
        for line_no, line in enumerate(path.read_text().splitlines(), 1):
            stripped = line.split("#", 1)[0]
            for pattern, reason in FORBIDDEN:
                if pattern.search(stripped):
                    violations.append((str(rel), line_no, reason, line.strip()))
    return violations


# Files whose job is terminal output: the top-level CLI, the experiment
# modules' main() entry points, and the obs console formatter (the one
# sanctioned place library records become stderr lines).
PRINT_ALLOWLIST = frozenset({
    "src/repro/cli.py",
    "src/repro/obs/console.py",
    "src/repro/experiments/figures.py",
    "src/repro/experiments/sensitivity.py",
    "src/repro/experiments/table2.py",
    "src/repro/experiments/table4.py",
    "src/repro/experiments/table5.py",
    "src/repro/experiments/table6.py",
    "src/repro/experiments/table7.py",
    "src/repro/experiments/table8.py",
    "src/repro/experiments/table9.py",
})


def find_print_violations(src: Path = SRC) -> List[Tuple[str, int, str, str]]:
    """Return ``(path, line_no, reason, line)`` for bare print() calls."""
    violations = []
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(REPO_ROOT)
        if str(rel) in PRINT_ALLOWLIST:
            continue
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text, filename=str(rel))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "print"):
                line = lines[node.lineno - 1].strip()
                violations.append((str(rel), node.lineno,
                                   "bare print() in library code", line))
    return violations


# Spec callables every task must supply; None or a non-callable fails.
_SPEC_CALLABLES = (
    "make_config", "channels", "loaders", "step", "evaluate", "build",
    "rebuild", "out_len", "checkpoint_extra", "add_infer_args", "run_infer",
    "format_result",
)
_CONTRACT_CALLABLES = ("batch_policy", "postprocess", "body_extra")


def find_task_violations() -> List[Tuple[str, int, str, str]]:
    """Registry-completeness check: every TaskSpec fully declared.

    Imports the live registry (CI runs this script without
    ``PYTHONPATH=src``, so the path is bootstrapped here) and verifies
    each spec carries every callable, a metric bundle, a serving
    contract, and a unique inference subcommand.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.tasks import registry
    finally:
        sys.path.pop(0)
    rel = "src/repro/tasks/registry.py"
    violations = []

    def flag(spec_name: str, problem: str) -> None:
        violations.append((rel, 0, "incomplete TaskSpec",
                           f"task {spec_name!r}: {problem}"))

    seen_commands = {}
    for spec in registry.task_specs():
        for attr in _SPEC_CALLABLES:
            if not callable(getattr(spec, attr)):
                flag(spec.name, f"{attr} is not callable")
        if spec.needs_split == (spec.load_data is not None):
            flag(spec.name, "load_data must be set iff needs_split is False")
        if not spec.metric_names:
            flag(spec.name, "metric_names is empty")
        if not spec.summary:
            flag(spec.name, "summary is empty")
        if not spec.setting_name or not spec.setting_arg:
            flag(spec.name, "setting_name/setting_arg missing")
        contract = spec.serving
        if contract is None:
            flag(spec.name, "serving contract missing")
        else:
            if not contract.singular or not contract.plural:
                flag(spec.name, "serving singular/plural keys missing")
            for attr in _CONTRACT_CALLABLES:
                if not callable(getattr(contract, attr)):
                    flag(spec.name, f"serving {attr} is not callable")
        if not spec.infer_command:
            flag(spec.name, "infer_command is empty")
        elif spec.infer_command in seen_commands:
            flag(spec.name, f"infer_command {spec.infer_command!r} collides "
                            f"with task {seen_commands[spec.infer_command]!r}")
        else:
            seen_commands[spec.infer_command] = spec.name
    return violations


def main() -> int:
    violations = (find_violations() + find_print_violations()
                  + find_task_violations())
    for path, line_no, reason, line in violations:
        print(f"{path}:{line_no}: {reason}: {line}")
    if violations:
        print(f"{len(violations)} violation(s): route new differentiable ops "
              "through @register_op + apply() (see src/repro/autodiff/graph.py)"
              " and console output through the event sink (see "
              "src/repro/obs/console.py)")
        return 1
    print("lint_ops: clean — no tape construction outside autodiff/, no "
          "bare print() in library code, all TaskSpecs complete")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
