"""Run one benchmark workload in this process and print its result as JSON.

Started by ``run.py`` as a fresh interpreter, with the BLAS thread variables
already in its environment so that they hold before numpy loads, and with
``PERFBENCH_T0`` set to the monotonic clock just before the process was
spawned, so that set-up time counts the interpreter start.

    python3 perfbench/workload.py --workload tiny-train --seed 1 --seconds 20 \
        --trace 0 --work .bench_build/perfbench/tmp

With ``--setup-only`` the process stops after set-up and reports only its
set-up time. The last line of standard output is the result object.
"""

from __future__ import annotations

import os
import time

T0 = float(os.environ.get("PERFBENCH_T0", time.monotonic()))

import argparse  # noqa: E402
import copy  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

from dualvit import complexity, data, training  # noqa: E402
from dualvit import tensor as T  # noqa: E402
from dualvit.blocks import DualBlock, FeatureMap, MergeBlock, SemanticTokens  # noqa: E402
from dualvit.model import build_model, preset_config  # noqa: E402
from dualvit.tensor import Tensor  # noqa: E402

import stats  # noqa: E402
from tracer import (ATTENTION_KIND, END, EXTRA, FFN_KIND, LABEL, NAME, OP,  # noqa: E402
                    START, TENSOR_GROUPS, TENSOR_OPS, Tracer, module_paths)

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "s224-infer": {"preset": "S", "batch": 1, "train": False, "images": 4},
    "s224-train": {"preset": "S", "batch": 1, "train": True, "images": 1},
    "tiny-train": {"preset": "tiny", "batch": 16, "train": True, "per_class": 8},
}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_OPS = stats.TAIL_MIN_SAMPLES  # untraced runs time at least this many operations
MIN_TRACED_OPS = 5
F64_REL_BOUND = 1e-4  # float32 vs float64 logits, relative to max(1, max|logit|)
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference_tiny_loss.json")
REF_LOSS_BOUND = 1e-3  # absolute, per step, on the fixed-seed tiny loss curve
REF_STEPS = 20


class StepClock:
    """Records when each ``AdamW.step`` returns: the end of a training step.

    ``train_toy`` runs its whole loop in one call, so this boundary is the only
    place per-step latency can be read from outside.
    """

    def __init__(self):
        self.marks: list[float] = []
        self.tracer: Tracer | None = None

    def install(self) -> None:
        original = training.AdamW.step
        clock = self

        def step(opt, lr=None):
            out = original(opt, lr)
            clock.marks.append(time.perf_counter())
            if clock.tracer is not None:
                clock.tracer.op = len(clock.marks)
            return out

        training.AdamW.step = step


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def random_dataset(seed: int, count: int, resolution: int, classes: int) -> data.Dataset:
    """Byte-grid images and labels drawn from ``seed`` alone."""
    rng = np.random.default_rng([seed, 1])
    pixels = rng.integers(0, 256, size=(count, resolution, resolution, 3), dtype=np.uint8)
    labels = rng.integers(0, classes, size=count).astype(np.int64)
    return data.Dataset(images=(pixels / 255.0).astype(np.float32), labels=labels,
                        num_classes=classes)


def setup(name: str, seed: int, work: str) -> dict:
    """Build what the workload serves, as the CLI would, from ``seed`` alone."""
    spec = WORKLOADS[name]
    cfg = preset_config(spec["preset"], seed=seed)
    out = {"built": None}
    if name == "s224-infer":
        # `dualvit eval`: the model comes back from a checkpoint
        built = build_model(cfg)
        path = os.path.join(work, "model.dvcp")
        data.save_checkpoint(built, path)
        out["model"] = data.load_checkpoint(path)
        out["built"] = built
    else:
        out["model"] = build_model(cfg)
    if name == "tiny-train":
        source = data.make_synthetic(cfg.num_classes, spec["per_class"], cfg.resolution,
                                     seed=seed)
    else:
        source = random_dataset(seed, spec["images"], cfg.resolution, cfg.num_classes)
    # `dualvit train|eval --data file.dvds`
    dvds = os.path.join(work, "data.dvds")
    data.save_packed_dataset(source, dvds)
    out["dataset"] = data.load_packed_dataset(dvds)
    out["source"] = source
    return out


def same_parameters(a, b) -> bool:
    pa, pb = list(a.named_parameters()), list(b.named_parameters())
    return len(pa) == len(pb) and all(
        na == nb and x.data.dtype == y.data.dtype and np.array_equal(x.data, y.data)
        for (na, x), (nb, y) in zip(pa, pb))


def same_dataset(a: data.Dataset, b: data.Dataset) -> bool:
    return (a.num_classes == b.num_classes and np.array_equal(a.labels, b.labels)
            and a.images.dtype == b.images.dtype and np.array_equal(a.images, b.images))


def running_threads() -> int:
    """Threads of this process after a GEMM large enough to start BLAS workers."""
    a = np.ones((1024, 1024), dtype=np.float32)
    (a @ a).sum()
    return len(os.listdir("/proc/self/task"))


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu}


# ---------------------------------------------------------------------------
# timed phases
# ---------------------------------------------------------------------------

def infer_ops(model, dataset, batch, seconds, min_ops, tracer=None, refs=None):
    """Closed loop of forward calls; returns latencies (s) and failures.

    An operation fails if it raises, if its logits are non-finite, or if an
    image seen before gives logits that are not bit-identical.
    """
    refs = {} if refs is None else refs
    count = len(dataset.labels) // batch
    latencies, failed = [], 0
    deadline = time.perf_counter() + seconds
    k = 0
    while time.perf_counter() < deadline or len(latencies) + failed < min_ops:
        i = k % count
        x = dataset.images[i * batch:(i + 1) * batch]
        if tracer is not None:
            tracer.op = k
        t0 = time.perf_counter()
        try:
            logits = model(x).data
        except Exception:  # a raising operation is a counted failure
            traceback.print_exc()
            logits = None
        t1 = time.perf_counter()
        k += 1
        ok = logits is not None and bool(np.isfinite(logits).all())
        if ok:
            ok = np.array_equal(refs.setdefault(i, logits), logits)
        if ok:
            latencies.append(t1 - t0)
        else:
            failed += 1
    return latencies, failed


def train_ops(model, dataset, batch, seconds, floor, seed, clock):
    """``train_toy`` calls until ``seconds`` and ``floor`` steps are timed.

    Returns the step latencies, the reports and the operation ids of the timed
    steps. Step 0 of each call also allocates the optimizer state, so it is
    not a sample; the first call's step 0 is the warm-up.
    """
    latencies, reports, ops = [], [], []
    steps = floor + 1
    while True:
        start = len(clock.marks)
        if clock.tracer is not None:
            clock.tracer.op = start
        report = training.train_toy(model, dataset, steps=steps, batch_size=batch, seed=seed)
        reports.append(report)
        marks = clock.marks[start:]
        latencies += [b - a for a, b in zip(marks, marks[1:])]
        ops += range(start + 1, start + len(marks))
        remaining = seconds - sum(latencies)
        if report.aborted or not latencies or (remaining <= 0 and len(latencies) >= floor):
            return latencies, reports, ops
        steps = 1 + max(floor - len(latencies), math.ceil(remaining / stats.median(latencies)))


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

def counted_forward(model, x):
    """Forward pass with every ``tensor.matmul`` call's MACs added up."""
    original = T.matmul
    total = 0

    def counting(a, b):
        nonlocal total
        total += stats.matmul_macs(a.shape, b.shape)
        return original(a, b)

    T.matmul = counting
    try:
        logits = model(x).data
    finally:
        T.matmul = original
    return logits, total


def float64_logits(model, x) -> np.ndarray:
    model.zero_grad()  # so the copy does not carry the gradients along
    twin = copy.deepcopy(model)
    for p in twin.parameters():
        p.data = p.data.astype(np.float64)
        p.requires_grad = False
    return twin(Tensor(x, dtype=np.float64)).data


def reference_losses() -> list[float]:
    """The tiny loss curve on a fixed seed, independent of ``--seed``."""
    cfg = preset_config("tiny", seed=0)
    dataset = data.make_synthetic(cfg.num_classes, 8, cfg.resolution, seed=0)
    report = training.train_toy(build_model(cfg), dataset, steps=REF_STEPS,
                                batch_size=16, seed=0)
    return report.losses


# ---------------------------------------------------------------------------
# traced breakdown
# ---------------------------------------------------------------------------

def capture_stage_inputs(model, x) -> dict:
    firsts = {id(blocks[0]): i for i, blocks in enumerate(model.stage_blocks) if blocks}
    captured = {}
    originals = {cls: cls.__call__ for cls in (DualBlock, MergeBlock)}

    def wrap(original):
        def call(blk, fm, z):
            i = firsts.get(id(blk))
            if i is not None:
                captured[i] = (fm.tokens.data.copy(), fm.height, fm.width,
                               z.tokens.data.copy())
            return original(blk, fm, z)
        return call

    for cls, original in originals.items():
        cls.__call__ = wrap(original)
    try:
        model(x)
    finally:
        for cls, original in originals.items():
            cls.__call__ = original
    return captured


def stage_backward_ms(model, x, reps: int) -> dict[int, float]:
    """Backward time of each stage's blocks alone, replayed on the activations
    the forward pass fed that stage, under a fixed random-projection loss."""
    rng = np.random.default_rng(0)
    out = {}
    for i, (xd, h, w, zd) in sorted(capture_stage_inputs(model, x).items()):
        probes = None
        times = []
        for _ in range(reps):
            fm = FeatureMap(Tensor(xd, requires_grad=True), h, w)
            z = SemanticTokens(Tensor(zd, requires_grad=True))
            for blk in model.stage_blocks[i]:
                fm, z = blk(fm, z)
            if probes is None:
                probes = [Tensor(rng.standard_normal(t.shape).astype(t.data.dtype) / t.data.size)
                          for t in (fm.tokens, z.tokens)]
            loss = T.add(T.sum_all(T.mul(fm.tokens, probes[0])),
                         T.sum_all(T.mul(z.tokens, probes[1])))
            t0 = time.perf_counter()
            loss.backward()
            times.append(time.perf_counter() - t0)
            model.zero_grad()
        out[i] = stats.median(times) * 1e3
    return out


def matmul_ceiling(shapes: Counter) -> float:
    """GMAC/s of bare numpy ``@`` over the same shapes and dtypes, best of 3."""
    rng = np.random.default_rng(0)
    macs = seconds = 0
    for (sa, sb, dt), count in shapes.items():
        a = rng.standard_normal(sa).astype(dt)
        b = rng.standard_normal(sb).astype(dt)
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(count):
                a @ b
            best = min(best, time.perf_counter() - t0)
        macs += count * stats.matmul_macs(sa, sb)
        seconds += best
    return macs / seconds / 1e9


def live_mb_after_forward(model, x, labels=None) -> float:
    tracemalloc.start()
    try:
        out = model(x)
        if labels is not None:
            out = T.cross_entropy_with_logits(out, labels)
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del out
    return live / 2**20


def layer_metrics(tracer: Tracer, model, ops, images: int, train_steps, steps: int) -> dict:
    """Per-layer rows from the spans of the counted operations.

    Forward work is per image over ``ops``; training work is per step over
    ``train_steps``.
    """
    ms = 1e3
    m: dict[str, tuple[float, str]] = {}

    def total(name, label_pred=None, op_set=ops):
        return sum(s[END] - s[START] for s in tracer.select(name, op_set)
                   if label_pred is None or label_pred(s[LABEL]))

    tensor_spans = [s for s in tracer.spans if s[OP] in ops and s[NAME].startswith("tensor.")
                    and s[NAME][len("tensor."):] in TENSOR_OPS]
    m["tensor.ops_per_img"] = (len(tensor_spans) / images, "count")
    for group, members in TENSOR_GROUPS.items():
        m[f"tensor.{group}.fwd_ms"] = (total(["tensor." + o for o in members]) * ms / images,
                                       "ms")
    mm = tracer.select("tensor.matmul", ops)
    mm_macs = sum(s[EXTRA][0] for s in mm)
    mm_time = sum(s[END] - s[START] for s in mm)
    m["tensor.matmul.gmac"] = (mm_macs / images / 1e9, "GMAC")
    m["tensor.matmul.gmac_per_s"] = (mm_macs / mm_time / 1e9, "GMAC/s")
    first = min(ops)
    m["tensor.matmul.ceiling_gmac_per_s"] = (matmul_ceiling(Counter(
        s[EXTRA][1:] for s in mm if s[OP] == first)), "GMAC/s")

    m["tensor.backward_ms"] = (total("tensor.backward", op_set=train_steps) * ms / steps, "ms")
    m["tensor.accumulate_grad_calls"] = (
        sum(tracer.grad_calls.get(o, 0) for o in train_steps) / steps, "count")
    m["tensor.grad_allocs"] = (
        sum(tracer.grad_allocs.get(o, 0) for o in train_steps) / steps, "count")

    for kind in ("sem_self", "sem_cross", "pix_cross", "joint"):
        spans = [s for s in tracer.select("nn.attention", ops)
                 if ATTENTION_KIND.get(s[LABEL].rsplit(".", 1)[-1]) == kind]
        t = sum(s[END] - s[START] for s in spans)
        m[f"nn.attention.{kind}.fwd_ms"] = (t * ms / images, "ms")
        m[f"nn.attention.{kind}.gmac_per_s"] = (
            sum(s[EXTRA] for s in spans) / t / 1e9 if t else 0.0, "GMAC/s")
    for kind in ("pixel", "semantic"):
        spans = [s for s in tracer.select("nn.ffn", ops)
                 if FFN_KIND.get(s[LABEL].rsplit(".", 1)[-1]) == kind]
        t = sum(s[END] - s[START] for s in spans)
        m[f"nn.ffn.{kind}.fwd_ms"] = (t * ms / images, "ms")
        m[f"nn.ffn.{kind}.gmac_per_s"] = (
            sum(s[EXTRA] for s in spans) / t / 1e9 if t else 0.0, "GMAC/s")
    # Linear and LayerNorm enclose no other nn module: their span is their self time
    m["nn.layernorm.fwd_ms"] = (total("nn.layernorm") * ms / images, "ms")
    m["nn.linear.fwd_ms"] = (total("nn.linear") * ms / images, "ms")

    breakdown = dict((p, macs) for p, _, macs in complexity.count_macs(model).breakdown)
    forward = total("model.forward")
    for i in range(len(model.stage_blocks)):
        prefix = f"stages.{i}.blocks."
        t = total(["blocks.dual", "blocks.merge"], lambda lab: lab.startswith(prefix))
        macs = sum(v for p, v in breakdown.items() if p.startswith(prefix))
        m[f"model.stage{i + 1}.fwd_ms"] = (t * ms / images, "ms")
        m[f"model.stage{i + 1}.gmac_per_s"] = (macs * images / t / 1e9, "GMAC/s")
    for name, key in (("blocks.patch_embed", "blocks.patch_embed.fwd_ms"),
                      ("blocks.transition", "blocks.transition.fwd_ms")):
        m[key] = (total(name) * ms / images, "ms")
    # self times among model and block spans: the forward call's own time is
    # pooling, head norm and classifier; the features call's own time is what
    # no stage, patch embedding or transition covers
    indices, rows = tracer.view(lambda n: n.startswith(("model.", "blocks.")))
    own = {"model.forward": 0.0, "model.features": 0.0}
    for i, t in zip(indices, stats.self_times(rows)):
        s = tracer.spans[i]
        if s[NAME] in own and s[OP] in ops:
            own[s[NAME]] += t
    m["model.head.fwd_ms"] = (own["model.forward"] * ms / images, "ms")
    m["model.fwd_ms"] = (forward * ms / images, "ms")
    m["model.accounted_frac"] = (1.0 - own["model.features"] / forward, "ratio")

    m["training.adamw_step_ms"] = (total("training.adamw_step", op_set=train_steps) * ms / steps,
                                   "ms")
    m["training.zero_grad_ms"] = (total("training.zero_grad", op_set=train_steps) * ms / steps,
                                  "ms")
    evals = [s[END] - s[START] for s in tracer.spans if s[NAME] == "training.evaluate"]
    m["training.evaluate_ms"] = (stats.median(evals) * ms, "ms")

    def median_ms(name):
        return stats.median([s[END] - s[START] for s in tracer.spans if s[NAME] == name]) * ms

    m["data.ckpt_save_ms"] = (median_ms("data.save_checkpoint"), "ms")
    m["data.ckpt_load_ms"] = (median_ms("data.load_checkpoint"), "ms")
    m["data.dvds_save_ms"] = (median_ms("data.save_packed_dataset"), "ms")
    m["data.dvds_load_ms"] = (median_ms("data.load_packed_dataset"), "ms")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def run(name: str, seed: int, seconds: float, trace: bool, work: str) -> dict:
    spec = WORKLOADS[name]
    batch = spec["batch"]
    clock = StepClock()
    clock.install()
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    state = setup(name, seed, work)
    setup_s = time.monotonic() - T0
    if tracer:
        tracer.uninstall()
    model, dataset = state["model"], state["dataset"]

    gates: dict[str, tuple[bool, str]] = {}
    requested = {os.environ.get(var) for var in THREAD_VARS}
    threads = running_threads()
    gates["blas_threads"] = (requested == {str(threads)},
                             f"{threads} threads running, {THREAD_VARS} = {requested}")
    if not gates["blas_threads"][0]:
        return {"refused": gates["blas_threads"][1]}
    gates["dvds_roundtrip"] = (same_dataset(state["source"], dataset), "bit-exact")
    if state["built"] is not None:
        gates["dvcp_roundtrip"] = (same_parameters(state["built"], model), "bit-exact")
    del state

    gc.collect()  # leave set-up garbage out of the timed operations
    traced_s = seconds / 2 if trace else 0.0
    timed_s = seconds - traced_s
    floor = MIN_TRACED_OPS if trace else MIN_OPS
    traced_lat, reports, failed = [], [], 0
    if not spec["train"]:
        refs: dict = {}
        infer_ops(model, dataset, batch, 0.0, 1, refs=refs)  # warm-up
        latencies, failed = infer_ops(model, dataset, batch, timed_s, floor, refs=refs)
        if trace:
            tracer.paths = module_paths(model)
            tracer.install()
            traced_lat, traced_failed = infer_ops(model, dataset, batch, traced_s, floor,
                                                  tracer, refs)
            tracer.uninstall()
            failed += traced_failed
            ops = set(range(len(traced_lat) + traced_failed))
            # inference has no backward: one probe training step on the served
            # model, after an untraced warm-up step, gives the training-side
            # rows, tagged apart from the operations
            probe = data.Dataset(dataset.images[:1], dataset.labels[:1], dataset.num_classes)
            reports.append(training.train_toy(model, probe, steps=1, batch_size=1, seed=seed))
            tracer.op = "probe"
            tracer.install()
            reports.append(training.train_toy(model, probe, steps=1, batch_size=1, seed=seed))
            tracer.uninstall()
            train_steps, steps = {"probe"}, 1
    else:
        latencies, reports, _ = train_ops(model, dataset, batch, timed_s, floor, seed, clock)
        if trace:
            tracer.paths = module_paths(model)
            tracer.install()
            clock.tracer = tracer
            traced_lat, more, ops = train_ops(model, dataset, batch, traced_s, floor, seed,
                                              clock)
            clock.tracer = None
            tracer.uninstall()
            reports += more
            ops = train_steps = set(ops)
            steps = len(ops)
    attempted = len(latencies) + len(traced_lat) + failed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if spec["train"]:
        losses = [v for r in reports for v in r.losses]
        finite = all(math.isfinite(v) for v in losses) and not any(r.aborted for r in reports)
        gates["losses_finite"] = (finite, f"{len(losses)} losses")
        # `dualvit train` writes the trained model as a checkpoint
        ckpt = os.path.join(work, "trained.dvcp")
        if tracer:
            tracer.op = "ckpt"
            tracer.install()
        data.save_checkpoint(model, ckpt)
        reloaded = data.load_checkpoint(ckpt)
        if tracer:
            tracer.uninstall()
        gates["dvcp_roundtrip"] = (same_parameters(model, reloaded), "bit-exact")
        del reloaded
    else:
        ckpt = os.path.join(work, "model.dvcp")
    x = dataset.images[:batch]
    logits32, counted = counted_forward(model, x)
    expected = complexity.count_macs(model).macs * batch
    gates["matmul_macs"] = (counted == expected,
                            f"counted {counted} vs analytic {expected} (batch {batch})")
    logits64 = float64_logits(model, x)
    err = float(np.abs(logits32 - logits64).max())
    bound = F64_REL_BOUND * max(1.0, float(np.abs(logits64).max()))
    gates["float64_logits"] = (err <= bound, f"max |diff| {err:.3g} <= {bound:.3g}")
    if name == "tiny-train":
        with open(REFERENCE_FILE) as fh:
            ref = json.load(fh)["losses"]
        got = reference_losses()
        diff = max(abs(a - b) for a, b in zip(got, ref)) if len(got) == len(ref) else math.inf
        gates["tiny_reference_curve"] = (diff <= REF_LOSS_BOUND,
                                         f"max |diff| {diff:.3g} <= {REF_LOSS_BOUND:g} "
                                         f"over {len(ref)} steps")

    result = {"workload": name, "seed": seed, "batch": batch, "setup_s": setup_s,
              "latencies": latencies, "peak_rss_mb": peak_rss_mb, "env": environment()}
    if trace:
        traced_macs = sum(s[EXTRA][0] for s in tracer.select("tensor.matmul", ops))
        expected *= len(ops)
        gates["traced_matmul_macs"] = (traced_macs == expected,
                                       f"counted {traced_macs} vs analytic {expected}")
        layers = layer_metrics(tracer, model, ops, len(ops) * batch, train_steps, steps)
        size_mb = os.path.getsize(ckpt) / 1e6
        save_load_s = (layers["data.ckpt_save_ms"]["value"]
                       + layers["data.ckpt_load_ms"]["value"]) / 1e3
        layers["data.ckpt_mb_per_s"] = {"value": 2 * size_mb / save_load_s, "unit": "MB/s"}
        labels = dataset.labels[:batch] if spec["train"] else None
        layers["tensor.live_mb_after_fwd"] = {
            "value": live_mb_after_forward(model, x, labels) / batch, "unit": "MB"}
        reps = 1 if spec["preset"] == "S" else 5
        for i, v in stage_backward_ms(model, x, reps).items():
            layers[f"model.stage{i + 1}.bwd_ms"] = {"value": v, "unit": "ms"}
        layers["trace.overhead_pct"] = {
            "value": 100.0 * (stats.median(traced_lat) / stats.median(latencies) - 1.0),
            "unit": "%"}
        result["layers"] = layers
        result["spans"] = len(tracer.spans)
        tracer.write(os.path.join(os.path.dirname(work), f"spans-{name}-seed{seed}.jsonl.gz"))
    result["gates"] = gates
    result["attempted"] = attempted + len(gates)
    result["failed"] = failed + sum(1 for ok, _ in gates.values() if not ok)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True, help="directory for the workload's files")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    os.makedirs(args.work, exist_ok=True)
    if args.setup_only:
        setup(args.workload, args.seed, args.work)
        print(json.dumps({"setup_s": time.monotonic() - T0}))
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
