"""In-memory span tracer that wraps satalign's public functions.

Each wrap point names the module attribute a caller looks the function up
under (``satalign.training.backward`` is what ``train`` calls), so patching
that attribute puts a span around exactly the calls made through it. Spans
keep name, start, end, parent, request id and whether the call raised; they
stay in memory until the run writes them out. Nothing under ``src/`` knows
about the tracer, and restoring the original attributes removes every trace
of it.
"""

from __future__ import annotations

import functools
import importlib
import time

# (object path, attribute, span name). A span name is "<layer>.<function>",
# with the layer being the satalign module the function lives in.
WRAP_POINTS = (
    ("satalign.cli", "hash_path", "cli.hash_path"),
    ("satalign.cli", "generate_synthetic_world", "synthworld.generate_synthetic_world"),
    ("satalign.cli", "save_dataset", "dataio.save_dataset"),
    ("satalign.cli", "ingest_dataset", "dataio.ingest_dataset"),
    ("satalign.cli", "pair_samples", "geodata.pair_samples"),
    ("satalign.cli", "train", "training.train"),
    ("satalign.cli", "save_checkpoint", "training.save_checkpoint"),
    ("satalign.cli", "load_checkpoint", "training.load_checkpoint"),
    ("satalign.cli", "build_training_graph", "training.build_training_graph"),
    ("satalign.cli", "finite_diff_check", "gradcheck.finite_diff_check"),
    ("satalign.cli", "fit_linear_probe", "evaluate.fit_linear_probe"),
    ("satalign.cli", "build_index", "evaluate.build_index"),
    ("satalign.cli", "save_index", "evaluate.save_index"),
    ("satalign.cli", "load_index", "evaluate.load_index"),
    ("satalign.cli", "query_index", "evaluate.query_index"),
    ("satalign.cli", "zero_shot_classify", "evaluate.zero_shot_classify"),
    ("satalign.training", "assemble_batch", "training.assemble_batch"),
    ("satalign.training", "fit_to_input", "augment.fit_to_input"),
    ("satalign.training", "augment_geometric", "augment.augment_geometric"),
    ("satalign.training", "augment_photometric", "augment.augment_photometric"),
    ("satalign.training", "build_training_graph", "training.build_training_graph"),
    ("satalign.training", "image_feature_graph", "encoders.image_feature_graph"),
    ("satalign.training", "location_feature_graph", "encoders.location_feature_graph"),
    ("satalign.training", "head_graph", "encoders.head_graph"),
    ("satalign.training", "trimodal_loss_graph", "contrastive.trimodal_loss_graph"),
    ("satalign.training", "backward", "tape.backward"),
    ("satalign.training", "adam_step", "optim.adam_step"),
    ("satalign.gradcheck", "backward", "tape.backward"),
    ("satalign.gradcheck", "_evaluate", "tape.replay"),
    ("satalign.evaluate", "adam_step", "optim.adam_step"),
    ("satalign.encoders.Model", "image_features", "encoders.image_features"),
)


def _resolve(path: str):
    """Import `a.b.C` as module `a.b` plus attribute `C` when needed."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


def _tape_counts(args, kwargs) -> dict:
    """Exact node count and bytes held in node values of the tape being
    differentiated; both are fixed by the graph, not by timing."""
    tape = args[0] if args else kwargs["tape"]
    return {"nodes": len(tape.nodes),
            "value_bytes": sum(node.value.nbytes for node in tape.nodes)}


def _image_rows(args, kwargs) -> dict:
    pixels = args[1] if len(args) > 1 else kwargs["pixels"]
    return {"rows": len(pixels)}


# Counters read from the arguments before the span's clock starts.
_ARG_COUNTERS = {"tape.backward": _tape_counts, "encoders.image_features": _image_rows}


def _paired_ratio(args, kwargs, result) -> dict:
    observations = args[0] if args else kwargs["observations"]
    return {"samples": len(result.samples), "observations": len(observations)}


# Counters read from the result after the span's clock stops.
_RESULT_COUNTERS = {"geodata.pair_samples": _paired_ratio}

# Spans whose first argument is a path whose bytes are counted after the run.
PATH_SPANS = ("cli.hash_path", "dataio.ingest_dataset")


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "error", "counts", "path")

    def __init__(self, name, start, parent, request):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.error = False
        self.counts = None
        self.path = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans while installed; `install`/`restore` patch and unpatch
    every wrap point."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.request = 0

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self.request)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span, error: bool = False) -> None:
        span.end = time.perf_counter()
        span.error = error
        self._stack.pop()

    def _wrap(self, name: str, fn):
        arg_counter = _ARG_COUNTERS.get(name)
        result_counter = _RESULT_COUNTERS.get(name)
        keep_path = name in PATH_SPANS
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = arg_counter(args, kwargs) if arg_counter else None
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(span, error=True)
                raise
            tracer.close(span)
            if result_counter:
                counts = result_counter(args, kwargs, result)
            span.counts = counts
            if keep_path:
                span.path = args[0] if args else None
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner_path, attr, name in WRAP_POINTS:
            owner = _resolve(owner_path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reading spans -----------------------------------------------------

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [s.seconds for s in self.spans]
        for span in self.spans:
            if span.parent is not None:
                out[span.parent] -= span.seconds
        return out

    def under(self, ancestor: str) -> list[bool]:
        """Whether each span has a span named `ancestor` above it."""
        flags = []
        for span in self.spans:
            parent = span.parent
            flags.append(False if parent is None else
                         self.spans[parent].name == ancestor or flags[parent])
        return flags

    def records(self, run_id: str) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "request": s.request, "run": run_id, "error": s.error}
                for s in self.spans]
