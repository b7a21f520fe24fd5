"""Mutation checks: each mutant breaks one property, and its named tests must fail.

Run from anywhere: ``python tests/mutants.py``. For each mutant the script
copies ``src``, ``tests``, ``pyproject.toml`` and ``README.md`` into a
temporary directory, replaces one exact text, which must occur exactly once in
the mutant's file, and runs only the tests named for it there. It exits 1 if a
mutant survives, if its text does not occur exactly once, if a named test
cannot be run, or if every test named for a mutant is a byte pin (a
``TestTiles`` case or a test that reads ``TINY_SHA256``): a pin catches the
change without saying which property it broke. Before any mutant the named
tests must pass on the unchanged copy. pytest does not collect this file: its
name does not start with ``test_``.
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
           "act = _affine(xd, w1d, b1d)", "act = xd @ w1d",
           "the FFN backward recomputes the pre-activation with its bias",
           ("tests/test_tensor.py::TestFeedForward::"
            "test_float32_output_and_gradients_equal_the_composition_byte_for_byte",)),
    Mutant("src/dualvit/tensor.py",
           "_gelu_tanh(xs, t)\n        if act is not None:\n",
           "_gelu_tanh(xs, t)\n        if act is not None:\n"
           "            y = np.add(t, 1.0, out=af[lo:hi])\n            y *= xs\n            y *= 0.5\n",
           "_gelu writes the activation into act only after the derivative has read x",
           ("tests/test_tensor.py::TestGelu::"
            "test_gelu_written_over_its_input_keeps_the_bytes_of_a_fresh_activation",)),
    Mutant("src/dualvit/tensor.py",
           "act = _affine(xd, w1d, b1d)", "act = h.copy()",
           "the FFN node keeps only its input, not its pre-activation",
           ("tests/test_tensor.py::TestGraphKeepsOnlyWhatBackwardReads::"
            "test_an_ffn_node_keeps_only_its_input",)),
    Mutant("src/dualvit/tensor.py",
           "qh = split(_affine(xqd, wqd, bqd))", "qh = split(xqd @ wqd)",
           "the attention backward recomputes the queries with their bias",
           ("tests/test_tensor.py::TestAttention::"
            "test_output_and_gradients_equal_the_composition_byte_for_byte",)),
    Mutant("src/dualvit/tensor.py",
           "                gk @ wkd.T, _weight_grad(xkvd, gk), gk,\n"
           "                gv @ wvd.T, _weight_grad(xkvd, gv), gv,\n"
           "                gwo, g)\n\n"
           "    return _make(out, (xq, wq, bq, xkv, wk, bk, xkv, wv, bv, wo, bo), backward)",
           "                gk @ wkd.T + gv @ wvd.T, _weight_grad(xkvd, gk), gk,\n"
           "                _weight_grad(xkvd, gv), gv,\n"
           "                gwo, g)\n\n"
           "    return _make(out, (xq, wq, bq, xkv, wk, bk, wv, bv, wo, bo), backward)",
           "the key/value source is a parent twice, so a self-attention's input "
           "gradient sums the query, key and value terms in that order",
           ("tests/test_tensor.py::TestAttention::"
            "test_self_attention_equals_the_composition_byte_for_byte",)),
    Mutant("src/dualvit/tensor.py",
           "qh = split(_affine(xqd, wqd, bqd))", "qh = split(q.copy())",
           "the attention node keeps only its inputs, not the projected queries",
           ("tests/test_tensor.py::TestAttention::test_an_attention_node_keeps_only_its_inputs",)),
    Mutant("src/dualvit/tensor.py",
           "    if _grad_enabled:\n", "    if True:\n",
           "an op result made under no_grad records no graph",
           ("tests/test_tensor.py::TestNoGrad::test_records_no_graph_and_nests",
            "tests/test_model.py::test_no_grad_forward_gives_the_same_logits_without_a_graph")),
    Mutant("src/dualvit/tensor.py",
           "_grad_enabled = saved", "pass",
           "no_grad restores recording on exit, also after an exception",
           ("tests/test_tensor.py::TestNoGrad::test_records_no_graph_and_nests",
            "tests/test_tensor.py::TestNoGrad::test_recording_resumes_after_an_exception")),
    Mutant("src/dualvit/training.py",
           "    with T.no_grad():\n        for start in range(0, n, batch_size):",
           "    if True:\n        for start in range(0, n, batch_size):",
           "evaluate records no graph",
           ("tests/test_training.py::test_evaluate_builds_no_graph",)),
    Mutant("src/dualvit/data.py",
           "zlib.crc32(payload, zlib.crc32(head))", "zlib.crc32(payload, zlib.crc32(head[12:]))",
           "the DVCP CRC covers the header as well as the manifest and payload",
           ("tests/test_data.py::test_checkpoint_bytes_follow_the_documented_layout",
            "tests/test_data.py::test_checkpoint_roundtrip_bit_exact")),
    Mutant("src/dualvit/tensor.py",
           "zip(node.parents, pgs, strict=True)", "zip(node.parents, pgs)",
           "a rule that returns another count of gradients than its node has parents raises",
           ("tests/test_tensor.py::TestBackward::"
            "test_a_rule_returning_another_count_than_its_parents_raises",)),
    Mutant("src/dualvit/tensor.py",
           "if len(g) == 1 and summed else", "if len(g) == 1 else",
           "_unbroadcast returns no memory shared with g, and sums -0.0 as numpy does",
           ("tests/test_tensor.py::TestTapeBuffers::"
            "test_unbroadcast_is_the_chain_of_sums_in_an_array_of_its_own",
            "tests/test_tensor.py::TestTapeBuffers::"
            "test_an_add_gives_its_broadcast_parent_a_buffer_of_its_own")),
    Mutant("src/dualvit/tensor.py",
           "if node.rule is None:", "if False:",
           "a backward that reaches a walked node is refused before any rule runs",
           ("tests/test_tensor.py::TestBackward::"
            "test_a_walked_graph_is_refused_before_any_rule_runs",)),
    Mutant("src/dualvit/model.py",
           "np.asarray(images, self.z0.data.dtype)", "np.array(images, self.z0.data.dtype)",
           "a batch already in the model's dtype is read in place, not copied",
           ("tests/test_model.py::test_a_batch_in_the_models_dtype_is_read_in_place",)),
    Mutant("src/dualvit/model.py",
           "np.asarray(images, self.z0.data.dtype)", "np.asarray(images)",
           "a batch in another float type is cast to the model's dtype",
           ("tests/test_model.py::"
            "test_a_float64_batch_gives_the_float32_logits_of_its_float32_cast",)),
    Mutant("src/dualvit/tensor.py",
           "ga -= m1", "pass",
           "the layer-norm input gradient subtracts the row mean of g * gamma",
           ("tests/test_tensor.py::test_op_gradients_match_finite_differences[layernorm]",
            "tests/test_tensor.py::TestLayerNorm::"
            "test_output_and_gradients_equal_the_untiled_formulas_byte_for_byte")),
    Mutant("src/dualvit/tensor.py",
           "np.multiply(g, normed, out=prod)", "np.multiply(ga, normed, out=prod)",
           "the layer-norm gamma gradient sums g times the standardized rows",
           ("tests/test_tensor.py::test_op_gradients_match_finite_differences[layernorm]",)),
    Mutant("src/dualvit/tensor.py",
           "ga -= np.multiply(normed, m2, out=prod)", "ga -= normed * m2",
           "the layer-norm backward reuses one product buffer for its three products",
           ("tests/test_tensor.py::TestLayerNorm::"
            "test_the_layernorm_backward_peaks_near_two_input_sized_arrays",)),
    Mutant("src/dualvit/training.py",
           "np.copyto(model.arena, last_good)\n            aborted = True",
           "pass\n            aborted = True",
           "a non-finite loss restores the weights that gave the last finite loss",
           ("tests/test_training.py::test_abort_restores_the_weights_of_the_last_finite_loss",)),
    Mutant("src/dualvit/training.py",
           "except FloatingPointError:  # non-finite logits, or the sentinel\n"
           "        np.copyto(model.arena, last_good)\n"
           "        acc, aborted = math.nan, True",
           "except FloatingPointError:  # non-finite logits, or the sentinel\n"
           "        raise",
           "a sentinel stop in the closing evaluation aborts the run, so train writes both files",
           ("tests/test_cli.py::"
            "test_an_update_whose_forward_overflows_aborts_with_the_weights_of_the_last_loss"
            "[1e30-debug]",)),
    Mutant("src/dualvit/training.py",
           "if p.data.base is not self.arena:", "if False:",
           "AdamW refuses a parameter rebound out of its arena",
           ("tests/test_training.py::test_adamw_refuses_a_parameter_rebound_after_construction",)),
    Mutant("src/dualvit/nn.py",
           "if p.data.base is not self.arena:", "if False:",
           "a checkpoint save refuses a parameter rebound out of the model's arena",
           ("tests/test_data.py::test_save_refuses_a_parameter_rebound_out_of_the_arena",)),
    Mutant("src/dualvit/tensor.py",
           "                stack.extend((p, False) for p in ps if type(p) is not _Node)\n"
           "                stack.extend((p, False) for p in ps if type(p) is _Node)",
           "                stack.extend((p, False) for p in ps if type(p) is _Node)\n"
           "                stack.extend((p, False) for p in ps if type(p) is not _Node)",
           "the walk reaches each leaf right after its last consumer's rule",
           ("tests/test_tensor.py::TestBackward::"
            "test_a_dual_block_hands_each_leaf_off_right_after_its_consumer",)),
    Mutant("src/dualvit/tensor.py",
           "elif (id(pg) not in taken and", "elif (True and",
           "a gradient array that one parent already owns is copied for the next",
           ("tests/test_tensor.py::TestTapeBuffers::"
            "test_fanout_gradients_are_exact_owned_and_accumulate",)),
    Mutant("src/dualvit/training.py",
           'raise FloatingPointError("non-finite logits in evaluation")', "pass",
           "train never saves, and eval never scores, weights whose forward is non-finite",
           ("tests/test_cli.py::"
            "test_an_update_whose_forward_overflows_aborts_with_the_weights_of_the_last_loss"
            "[1e38]",)),
    Mutant("README.md",
           "| 22.8M |", "| 22.9M |",
           "the README's preset table quotes what dualvit count prints",
           ("tests/test_readme.py::test_the_preset_table_quotes_what_count_prints",)),
    Mutant("README.md",
           "test_a_copy_is_laid_out_over_the_array_the_copier_made",
           "test_a_copy_is_laid_out_over_the_array_the_copier_makes",
           "every test the README cites exists",
           ("tests/test_readme.py::test_every_test_the_readme_cites_exists",)),
    Mutant("README.md",
           "--data synthetic", "--dataset synthetic",
           "every line of the README's CLI block parses",
           ("tests/test_readme.py::test_every_line_of_the_cli_block_parses",)),
    Mutant("README.md",
           "and 1 giga-MAC = 1e9 MACs.", "and 1 giga-MAC = 1e9 MACs; S@224 takes 4.339 GMAC.",
           "the README's Conventions quote no measured figure",
           ("tests/test_readme.py::"
            "test_each_convention_cites_a_test_and_quotes_no_measured_figure",)),
)


def node_source(node_id: str) -> str | None:
    """The source of the test ``node_id`` names (a parametrized case, its
    function's), or None when there is no such test."""
    path, *names = node_id.split("::")
    file = ROOT / path
    if not names or not file.is_file():
        return None
    source = file.read_text(encoding="utf-8")
    scope, segment = ast.parse(source).body, None
    for name in names:
        name = name.split("[")[0]
        node = next((n for n in scope if getattr(n, "name", None) == name), None)
        if node is None:
            return None
        scope, segment = node.body, ast.get_source_segment(source, node)
    return segment


def is_byte_pin(node_id: str) -> bool:
    """Whether the test is a ``TestTiles`` case or its source reads ``TINY_SHA256``."""
    return "TestTiles" in node_id or "TINY_SHA256" in (node_source(node_id) or "")


def run_tests(where: Path, tests) -> int:
    """pytest's exit status over ``tests`` in the copy at ``where``."""
    env = {**os.environ, "PYTHONPATH": str(where / "src")}
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *tests], cwd=where, env=env, stdout=subprocess.DEVNULL).returncode


def copy_tree(where: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, where / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(ROOT / name, where)


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
