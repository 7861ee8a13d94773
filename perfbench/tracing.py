"""Call tracing from the benchmark's side of the program boundary.

``Tracer`` replaces the public functions and methods of the program's
modules with timing wrappers, in this process only; no source file changes.
Spans nest: each wrapped call records its inclusive time, and its self time
is that minus the time of the wrapped calls made inside it. ``StageHooks`` is
the small part every run installs: the AdamW steps each training stage takes
and the time from one step to the next.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

import calibrate

LAYERS = (
    "audio", "patches", "data", "tensor", "nn", "encoder", "distill",
    "codebook", "optim", "checkpoint", "train", "evaluate", "cli",
)
# tensor-module helpers that build no graph node
NOT_OPS = {"parameter", "no_grad", "set_debug_checks"}


def _replace_everywhere(originals: dict[int, object]) -> None:
    """Point every audiomlm module-level name bound to a replaced function at its wrapper."""
    for name, mod in list(sys.modules.items()):
        if name == "audiomlm" or name.startswith("audiomlm."):
            for attr, value in list(vars(mod).items()):
                if id(value) in originals:
                    setattr(mod, attr, originals[id(value)])


class StageHooks:
    """AdamW steps taken in each training stage, and the stage's step times.

    A step time is the interval between consecutive AdamW steps of one stage
    call, so it holds one whole training step. With ``calibrated``, step
    times are normalized by ``calibrate.Segments`` (a reference run every
    ``SEGMENT[tag]`` steps, whose time is left out of the intervals);
    ``slowdowns`` and ``calibration_s`` collect its factors and cost.
    """

    SEGMENT = {"encoder": 10, "tokenizer": 5}

    def __init__(self, calibrated: bool = True):
        self.optimizer_steps = Counter()
        self.step_times = defaultdict(list)
        self.slowdowns: list[float] = []
        self.calibration_s = 0.0
        self.stage = None
        self._calibrated = calibrated
        self._segments = None
        self._last_step = None
        train = importlib.import_module("audiomlm.train")
        optim = importlib.import_module("audiomlm.optim")
        wrapped = {}
        for fn, tag in ((train.pretrain_encoder, "encoder"), (train.train_tokenizer_stage, "tokenizer")):
            wrapped[id(fn)] = self._stage(fn, tag)
        _replace_everywhere(wrapped)
        step = optim.AdamW.step

        @functools.wraps(step)
        def counted_step(opt, *args, **kwargs):
            now = time.perf_counter()
            if self._segments is not None and self._last_step is not None:
                self._segments.add(now - self._last_step)
                now = time.perf_counter()
            self._last_step = now
            self.optimizer_steps[self.stage] += 1
            return step(opt, *args, **kwargs)

        optim.AdamW.step = counted_step

    def _stage(self, fn, tag):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            outer = self.stage, self._segments
            self.stage, self._last_step = f"{tag}{kwargs.get('stage_tag', '')}", None
            self._segments = calibrate.Segments(self.SEGMENT[tag], measure=self._calibrated)
            try:
                return fn(*args, **kwargs)
            finally:
                self._segments.close()
                self.step_times[tag] += self._segments.times
                self.slowdowns += self._segments.slowdowns
                self.calibration_s += self._segments.spent
                (self.stage, self._segments), self._last_step = outer, None

        return timed


class Tracer:
    """Per-name call counts, self and inclusive seconds, plus a few sizes
    observed from arguments and results. Records only while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.values = defaultdict(float)  # sums and maxima observed by the hooks below
        self._stack: list[list] = []  # per open call: [seconds spent in wrapped children]
        self._active = Counter()
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"audiomlm.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not (layer == "tensor" and attr in NOT_OPS):
                    originals[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and attr != "Tensor":
                    self._wrap_class(layer, obj)
        _replace_everywhere(originals)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                setattr(cls, attr, type(member)(self._wrap(name, member.__func__)))
            elif inspect.isfunction(member):
                setattr(cls, attr, self._wrap(name, member))

    def active(self, name: str) -> bool:
        return self._active[name] > 0

    def _wrap(self, name: str, fn):
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)
        is_op = name.startswith("tensor.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [0.0]
            self._stack.append(frame)
            self._active[name] += 1
            if hook is not None:
                before = self._before(name, args)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self._active[name] -= 1
                self.calls[name] += 1
                self.self_s[name] += dt - frame[0]
                if self._active[name] == 0:
                    self.incl_s[name] += dt
                if self._stack:
                    self._stack[-1][0] += dt
            if is_op and self.active("train.pretrain_encoder"):
                self.values["encoder_stage_ops"] += 1
            if hook is not None:
                hook(args, kwargs, result, before, dt)
            return result

        return wrapper

    # -- observations --------------------------------------------------------

    def _before(self, name, args):
        return self.calls["audio.load_wav"] if name == "data.Featurizer.patch_sequence" else None

    def _after_codebook_quantize_batch(self, args, kwargs, result, _, dt):
        rows, (k, p) = args[0].shape[0], args[1].codewords.shape
        chunk = kwargs.get("chunk", args[2] if len(args) > 2 else 2048)
        self.values["quantize_rows"] += rows
        self.values["quantize_temp_mb"] = max(self.values["quantize_temp_mb"], min(rows, chunk) * k * p * 8 / 1e6)
        if self.active("train.tokenize_corpus_random") or self.active("train.tokenize_corpus_learned"):
            self.values["tokenized_patches"] += rows

    def _after_codebook_kmeans_init(self, args, kwargs, result, _, dt):
        m, p = args[0].shape
        self.values["kmeans_temp_mb"] = max(self.values["kmeans_temp_mb"], m * args[1] * p * 8 / 1e6)

    def _after_data_Featurizer_patch_sequence(self, args, kwargs, result, loads_before, dt):
        self.values["patch_sequence_calls"] += 1
        self.values["patch_sequence_decodes"] += self.calls["audio.load_wav"] - loads_before

    def _after_data_Featurizer_collate(self, args, kwargs, result, _, dt):
        slots, valid = result.valid.size, int(result.valid.sum())
        self.values["collate_slots"] += slots
        self.values["collate_valid"] += valid
        if self.active("evaluate.pooled_features"):
            self.values["pooled_slots"] += slots
            self.values["pooled_valid"] += valid

    def _after_encoder_EncoderModel_extract(self, args, kwargs, result, _, dt):
        if self.active("train.train_tokenizer_stage"):
            self.values["teacher_s"] += dt

    def _after_checkpoint_save_checkpoint(self, args, kwargs, result, _, dt):
        self.values["save_bytes"] += os.path.getsize(result)

    def _after_optim_AdamW_step(self, args, kwargs, result, _, dt):
        if self.active("train.pretrain_encoder"):
            self.values["encoder_steps"] += 1
        if self.active("train.pretrain_encoder") or self.active("train.train_tokenizer_stage"):
            self.values["training_steps"] += 1

    # -- metrics -------------------------------------------------------------

    def ms(self, *names: str, inclusive: bool = True) -> float:
        source = self.incl_s if inclusive else self.self_s
        return 1000.0 * sum(source[n] for n in names)

    def layer_self_ms(self, layer: str) -> float:
        return 1000.0 * sum(v for n, v in self.self_s.items() if n.split(".", 1)[0] == layer)

    def layer_calls(self, layer: str) -> int:
        return sum(v for n, v in self.calls.items() if n.split(".", 1)[0] == layer)

    def tensor_self_ms(self, *ops: str) -> float:
        return self.ms(*(f"tensor.{op}" for op in ops), inclusive=False)
