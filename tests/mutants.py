"""Mutation checks: each mutant breaks one property, and its named tests must fail.

Run from anywhere: ``python tests/mutants.py``. For each mutant the script
copies ``src``, ``tests`` and ``pyproject.toml`` into a temporary directory,
replaces one exact text, which must occur exactly once in the mutant's file,
and runs only the tests named for it there. It exits 1 if a mutant survives,
if its text does not occur exactly once, if a named test cannot be run, or if
every test named for a mutant is a byte pin (a ``TestTiles`` case or a test
that reads ``TINY_SHA256``): a pin catches the change without saying which
property it broke. Before any mutant the named tests must pass on the
unchanged copy. pytest does not collect this file: its name does not start
with ``test_``.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    file: str  # relative to the repository root
    text: str  # must occur exactly once in ``file``
    replacement: str
    breaks: str  # the property the mutant breaks
    tests: tuple[str, ...]  # pytest node ids that must kill it


MUTANTS = (
    Mutant("src/dualvit/blocks.py",
           "zn = self.norm_z_out(z_next)", "zn = self.norm_z_out(z.tokens)",
           "the pixel pathway reads the updated semantic tokens",
           ("tests/test_blocks.py::TestDualBlock::test_pixel_pathway_matches_hand_composition",)),
    Mutant("src/dualvit/model.py",
           "T.mean(T.concat([fm.tokens, z.tokens]))", "T.mean(fm.tokens)",
           "the head pools pixel and semantic tokens",
           ("tests/test_model.py::"
            "test_logits_are_the_head_of_the_mean_of_pixel_and_semantic_tokens",)),
    Mutant("src/dualvit/model.py",
           "return T.add(t, zeros)", "return T.add(T.add(t, t), zeros)",
           "every batch row of the tiled semantic seed holds z0",
           ("tests/test_model.py::test_tile_batch_holds_z0_in_every_row",)),
    Mutant("src/dualvit/training.py",
           "self.take(p, np.broadcast_to(zero, p.data.shape))", "pass",
           "step folds a zero gradient into the moments of each parameter not taken",
           ("tests/test_training.py::"
            "test_adamw_parameter_not_taken_updates_like_one_taken_with_zeros_byte_for_byte",)),
    Mutant("src/dualvit/training.py",
           "if p.grad is not None:", "if False:",
           "step refuses a parameter that holds a grad, which AdamW would ignore",
           ("tests/test_training.py::"
            "test_step_refuses_a_grad_left_by_a_plain_backward_before_it_changes_a_byte",)),
    Mutant("src/dualvit/training.py",
           "self._taken.add(id(p))", "pass",
           "take records the parameter: a second take is refused and step folds "
           "no zeros over a taken gradient",
           ("tests/test_training.py::test_take_folds_every_gradient_and_refuses_a_second_take",
            "tests/test_training.py::"
            "test_adamw_in_place_step_is_the_out_of_place_formula_byte_for_byte")),
    Mutant("src/dualvit/tensor.py",
           "act += b1d", "pass",
           "the FFN backward recomputes the pre-activation with its bias",
           ("tests/test_tensor.py::TestFeedForward::"
            "test_float32_output_and_gradients_equal_the_composition_byte_for_byte",)),
    Mutant("src/dualvit/tensor.py",
           "np.tanh(t, out=t)\n        if act is not None:\n",
           "np.tanh(t, out=t)\n        if act is not None:\n"
           "            y = np.add(t, 1.0, out=af[lo:hi])\n            y *= xs\n            y *= 0.5\n",
           "_gelu writes the activation into act only after the derivative has read x",
           ("tests/test_tensor.py::TestGelu::"
            "test_gelu_written_over_its_input_keeps_the_bytes_of_a_fresh_activation",)),
    Mutant("src/dualvit/tensor.py",
           "act = xd @ w1d\n        act += b1d", "act = h.copy()",
           "the FFN node keeps only its input, not its pre-activation",
           ("tests/test_tensor.py::TestGraphKeepsOnlyWhatBackwardReads::"
            "test_an_ffn_node_keeps_only_its_input",)),
)


def is_byte_pin(node_id: str) -> bool:
    """Whether the test is a ``TestTiles`` case or its source reads ``TINY_SHA256``."""
    if "TestTiles" in node_id:
        return True
    path, *names = node_id.split("::")
    source = (ROOT / path).read_text(encoding="utf-8")
    scope, segment = ast.parse(source).body, ""
    for name in names:
        name = name.split("[")[0]  # a parametrized case reads its function's source
        node = next((n for n in scope if getattr(n, "name", None) == name), None)
        if node is None:
            return False
        scope, segment = node.body, ast.get_source_segment(source, node)
    return "TINY_SHA256" in segment


def run_tests(where: Path, tests) -> int:
    """pytest's exit status over ``tests`` in the copy at ``where``."""
    env = {**os.environ, "PYTHONPATH": str(where / "src")}
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *tests], cwd=where, env=env, stdout=subprocess.DEVNULL).returncode


def copy_tree(where: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, where / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", where)


def check(mutant: Mutant) -> str | None:
    """Why ``mutant`` fails the check, or None when its named tests kill it."""
    if all(is_byte_pin(t) for t in mutant.tests):
        return "every named test is a byte pin"
    with tempfile.TemporaryDirectory() as tmp:
        where = Path(tmp)
        copy_tree(where)
        target = where / mutant.file
        source = target.read_text(encoding="utf-8")
        count = source.count(mutant.text)
        if count != 1:
            return f"its text occurs {count} times in {mutant.file}"
        target.write_text(source.replace(mutant.text, mutant.replacement), encoding="utf-8")
        status = run_tests(where, mutant.tests)
    if status == 0:
        return "SURVIVED"
    if status != 1:  # 1: tests ran and failed; anything else: they did not run
        return f"pytest exited {status}"
    return None


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy_tree(Path(tmp))
        status = run_tests(Path(tmp), sorted({t for m in MUTANTS for t in m.tests}))
    if status != 0:
        print(f"the named tests do not pass on the unchanged code (pytest exited {status})")
        return 1
    failed = 0
    for mutant in MUTANTS:
        why = check(mutant)
        failed += why is not None
        print(f"{mutant.file}: {mutant.breaks}: {'killed' if why is None else 'FAILED, ' + why}")
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed by their named tests")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
