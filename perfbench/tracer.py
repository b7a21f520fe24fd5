"""Spans around calls into dualvit's public functions, recorded from outside.

``Tracer.install`` replaces module-level functions and class-level methods of
the ``tensor``, ``nn``, ``blocks``, ``model``, ``training`` and ``data``
modules with wrappers that record one span per call: name, label, start, end,
parent span and operation id. Every caller reaches the ops through
``dualvit.tensor.<op>`` and the modules through their class, so the wrappers
see every call without a change to the package. ``uninstall`` restores the
originals. Spans stay in memory until ``write`` saves them.
"""

from __future__ import annotations

import gzip
import json
import time

from stats import matmul_macs

# tensor ops by reported group; ops outside a group are still counted
TENSOR_GROUPS = {
    "matmul": ("matmul",),
    "gelu": ("gelu",),
    "layernorm": ("layernorm",),
    "softmax": ("softmax_lastdim",),
    "add": ("add",),
    "shape": ("reshape", "transpose", "concat", "split"),
}
TENSOR_OPS = ("matmul", "add", "mul", "scale", "softmax_lastdim", "layernorm",
              "gelu", "concat", "split", "mean", "sum_all", "reshape",
              "transpose", "cross_entropy_with_logits")

ATTENTION_KIND = {"sem_self": "sem_self", "sem_cross": "sem_cross",
                  "pix_cross": "pix_cross", "attn": "joint"}
FFN_KIND = {"pix_ffn": "pixel", "ffn_x": "pixel",
            "sem_ffn": "semantic", "ffn_z": "semantic"}

NAME, LABEL, START, END, PARENT, OP, EXTRA = range(7)


def module_paths(model) -> dict[int, str]:
    """``id(module) -> path``, with the ``CostReport.breakdown`` prefixes."""
    from dualvit.nn import Module

    paths: dict[int, str] = {}

    def walk(mod, path):
        paths[id(mod)] = path
        for name, val in vars(mod).items():
            if isinstance(val, Module):
                walk(val, f"{path}.{name}")

    for i, pe in enumerate(model.patch_embeds):
        walk(pe, f"stages.{i}.patch_embed")
    for i, tr in enumerate(model.transitions):
        walk(tr, f"stages.{i + 1}.transition")
    for i, blocks in enumerate(model.stage_blocks):
        for j, blk in enumerate(blocks):
            walk(blk, f"stages.{i}.blocks.{j}")
    walk(model.head_norm, "head_norm")
    walk(model.head, "head")
    return paths


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = "setup"
        self.paths: dict[int, str] = {}
        self.grad_calls: dict = {}
        self.grad_allocs: dict = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def open(self, name: str, label: str = "", extra=None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, label, time.perf_counter(), 0.0, parent, self.op, extra])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self.stack.pop()

    def _span(self, name, fn, label_of=None, extra_of=None):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(name, label_of(args) if label_of else "",
                              extra_of(args) if extra_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return wrapper

    # -- installation -------------------------------------------------------
    def _patch(self, owner, attr, make):
        original = getattr(owner, attr, None)
        if original is None:
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        from dualvit import blocks, data, model, nn, tensor, training
        from dualvit.complexity import ffn_macs, mha_macs

        def path(args):
            return self.paths.get(id(args[0]), "")

        def matmul_extra(args):
            a, b = args[0], args[1]
            return (matmul_macs(a.shape, b.shape), a.shape, b.shape, a.data.dtype.str)

        for op in TENSOR_OPS:
            extra = matmul_extra if op == "matmul" else None
            self._patch(tensor, op, lambda f, op=op, extra=extra:
                        self._span("tensor." + op, f, extra_of=extra))

        self._patch(tensor.Tensor, "backward",
                    lambda f: self._span("tensor.backward", f))

        def count_grads(f):
            def accumulate_grad(t, g):
                self.grad_calls[self.op] = self.grad_calls.get(self.op, 0) + 1
                if t.grad is None:
                    self.grad_allocs[self.op] = self.grad_allocs.get(self.op, 0) + 1
                return f(t, g)
            return accumulate_grad

        self._patch(tensor.Tensor, "accumulate_grad", count_grads)

        def attention_macs(args):
            mha, q, k = args[0], args[1], args[2]
            return q.shape[0] * mha_macs(q.shape[-2], k.shape[-2], mha.dim)

        def ffn_macs_of(args):
            ffn, x = args[0], args[1]
            tokens = x.data.size // ffn.dim
            return ffn_macs(tokens, ffn.dim, ffn.ratio)

        for cls, name, extra in (
                (nn.Linear, "nn.linear", None),
                (nn.LayerNorm, "nn.layernorm", None),
                (nn.MultiHeadAttention, "nn.attention", attention_macs),
                (nn.FeedForward, "nn.ffn", ffn_macs_of),
                (blocks.DualBlock, "blocks.dual", None),
                (blocks.MergeBlock, "blocks.merge", None),
                (blocks.PatchEmbed, "blocks.patch_embed", None),
                (blocks.SemanticTransition, "blocks.transition", None)):
            self._patch(cls, "__call__", lambda f, name=name, extra=extra:
                        self._span(name, f, label_of=path, extra_of=extra))
        self._patch(model.DualViT, "__call__", lambda f: self._span("model.forward", f))
        self._patch(model.DualViT, "features", lambda f: self._span("model.features", f))
        self._patch(training.AdamW, "step", lambda f: self._span("training.adamw_step", f))
        self._patch(training.AdamW, "zero_grad",
                    lambda f: self._span("training.zero_grad", f))
        self._patch(training, "evaluate", lambda f: self._span("training.evaluate", f))
        for fn in ("save_checkpoint", "load_checkpoint",
                   "save_packed_dataset", "load_packed_dataset"):
            self._patch(data, fn, lambda f, fn=fn: self._span("data." + fn, f))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- queries --------------------------------------------------------------
    def select(self, names, ops) -> list[list]:
        names = {names} if isinstance(names, str) else set(names)
        return [s for s in self.spans if s[NAME] in names and s[OP] in ops]

    def view(self, keep) -> tuple[list[int], list[tuple[float, float, int | None]]]:
        """Spans whose name passes ``keep``, re-parented to their nearest kept
        ancestor, as ``(indices, [(start, end, parent_in_view)])``."""
        position: dict[int, int] = {}
        indices: list[int] = []
        rows = []
        for i, s in enumerate(self.spans):
            if not keep(s[NAME]):
                continue
            parent = s[PARENT]
            while parent is not None and parent not in position:
                parent = self.spans[parent][PARENT]
            position[i] = len(indices)
            indices.append(i)
            rows.append((s[START], s[END], position.get(parent) if parent is not None else None))
        return indices, rows

    def write(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(["name", "label", "start", "end", "parent", "op",
                                 "extra"]) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s, default=str) + "\n")
