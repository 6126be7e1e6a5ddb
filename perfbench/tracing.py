"""Span recorder for the traced run, and the per-layer metrics derived from it.

`Recorder.install()` rebinds the public functions of the offlang layer modules
to thin wrappers, in every offlang module that holds a reference to them
(`from .nn import sigmoid` style imports included), so `src/` is not edited.
Each call appends one span (name, start, end, parent, run id, counts) to an
in-memory list; nothing is written until `Recorder.dump()` at the end of the
run. Counts are taken at the same boundaries by small per-function hooks that
run after the span has closed.
"""

import importlib
import inspect
import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

LAYERS = ("corpus", "resample", "embeddings", "nn", "model", "baseline", "metrics")

# Per-word and per-n-gram helpers: a wrapper costs as much as their body, and
# their time is already inside embeddings.init_s (FastTextModel.init).
SKIP = {"embeddings.fnv1a_32", "embeddings.ngram_strings", "embeddings.extract_ngrams"}

# A private boundary wrapped on purpose. Validation and `predict` batch their
# forward passes through this helper, which is what separates inference from
# training steps inside model.train.
INFERENCE = "model._predict_proba_arrays"

PAGE_MB = resource.getpagesize() / 2**20


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * PAGE_MB


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _walk_tree(tree) -> tuple[int, int]:
    """(nodes, depth) of one tree, with an explicit stack.

    Handles linked nodes (`left`/`right` attributes, None at leaves) and flat
    trees whose `left`/`right` are index arrays with negative leaf entries, the
    form an array-based forest returns, so the counts survive that rewrite.
    """
    left = getattr(tree, "left", None)
    if isinstance(left, np.ndarray):
        right = tree.right
        nodes, depth, stack = 0, 0, [(0, 0)]
        while stack:
            i, d = stack.pop()
            nodes += 1
            depth = max(depth, d)
            if left[i] >= 0:
                stack += [(int(left[i]), d + 1), (int(right[i]), d + 1)]
        return nodes, depth
    nodes, depth, stack = 0, 0, [(tree, 0)]
    while stack:
        node, d = stack.pop()
        nodes += 1
        depth = max(depth, d)
        if node.left is not None:
            stack += [(node.left, d + 1), (node.right, d + 1)]
    return nodes, depth


def _forest_counts(bound, result, before) -> dict:
    walks = [_walk_tree(t) for t in result.trees]
    return {
        "trees": len(walks),
        "nodes": sum(n for n, _ in walks),
        "depth": max((d for _, d in walks), default=0),
        "rss_growth_mb": _maxrss_mb() - before,
    }


def _tokens_epochs(bound, result, before) -> dict:
    from offlang.embeddings import CbowTrainParams

    epochs = (bound.arguments.get("params") or CbowTrainParams()).epochs
    return {"tokens": sum(len(s) for s in bound.arguments["token_lists"]), "epochs": epochs}


# name -> (hook(bound_args, result, before) -> counts, before() -> value)
HOOKS = {
    "nn.bilstm_forward": (lambda b, r, _: {"examples": b.arguments["xs"].shape[0]}, None),
    "nn.adam_step": (lambda b, r, _: {"entries": sum(p.values.size for p in b.arguments["params"])}, None),
    "baseline.bow_matrix": (lambda b, r, _: {"mb": r.nbytes / 2**20}, None),
    "baseline.train_forest": (_forest_counts, _rss_mb),
    "baseline.predict_forest": (
        lambda b, r, _: {"row_trees": len(b.arguments["X"]) * len(b.arguments["model"].trees)}, None
    ),
    "embeddings.train_cbow": (_tokens_epochs, None),
    "embeddings.save_fasttext": (lambda b, r, _: {"mb": Path(b.arguments["path"]).stat().st_size / 2**20}, None),
}


class Recorder:
    """In-memory spans; `run_id` names the command the spans belong to."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.run_id = ""
        self._originals: dict[tuple, object] = {}

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        hook, pre = HOOKS.get(name, (None, None))
        sig = inspect.signature(fn) if hook else None
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            i = len(spans)
            spans.append(None)
            stack.append(i)
            before = pre() if pre else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[i] = [name, t0, t1, parent, self.run_id, None]
            if hook:
                spans[i][5] = hook(sig.bind(*args, **kwargs), result, before)
                # the hook's own time is a sibling span, so no parent counts it as self time
                spans.append(["trace.hook", t1, clock(), parent, self.run_id, None])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        layers = {layer: importlib.import_module(f"offlang.{layer}") for layer in LAYERS}
        modules = [m for n, m in sys.modules.items() if n.startswith("offlang") and m is not None]
        targets = {}
        for layer, mod in layers.items():
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or name == INFERENCE) and name not in SKIP):
                    targets[id(obj)] = self._wrap(name, obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in targets and inspect.isfunction(obj):
                    self._originals[(mod, attr)] = obj
                    setattr(mod, attr, targets[id(obj)])

        cls = layers["embeddings"].FastTextModel
        init = cls.__dict__["init"]
        self._originals[(cls, "init")] = init
        cls.init = classmethod(self._wrap("embeddings.FastTextModel.init", init.__func__))

    def uninstall(self) -> None:
        for (owner, attr), obj in self._originals.items():
            setattr(owner, attr, obj)
        self._originals.clear()

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load_spans(path: Path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


# ---------------------------------------------------------------------------
# per-layer metrics

# (name, unit); every traced run reports all of them, 0 where a layer is idle
PER_LAYER = (
    ("nn.bilstm_forward.train_ms_per_step", "ms"),
    ("nn.bilstm_backward.ms_per_step", "ms"),
    ("nn.bilstm_forward.predict_ms_per_example", "ms"),
    ("nn.conv1d_forward.ms_per_step", "ms"),
    ("nn.conv1d_backward.ms_per_step", "ms"),
    ("nn.adam_step.ms_per_step", "ms"),
    ("nn.other.ms_per_step", "ms"),
    ("nn.adam_step.entries_per_step", "count"),
    ("model.self_ms_per_step", "ms"),
    ("model.step_ms_p50", "ms"),
    ("model.step_ms_p99", "ms"),
    ("model.steps", "count"),
    ("model.save_model_s", "s"),
    ("model.load_model_s", "s"),
    ("embeddings.cbow_pair_loss.us_per_pair", "us"),
    ("embeddings.update.us_per_pair", "us"),
    ("embeddings.cbow_pair_loss.pairs", "count"),
    ("embeddings.pairs_per_token", "ratio"),
    ("embeddings.init_s", "s"),
    ("embeddings.save_fasttext_s", "s"),
    ("embeddings.save_fasttext_mb", "MB"),
    ("embeddings.load_text_embeddings_s", "s"),
    ("embeddings.build_embedding_matrix_s", "s"),
    ("baseline.train_forest.ms_per_tree", "ms"),
    ("baseline.predict_forest.us_per_row_tree", "us"),
    ("baseline.bow_matrix_s", "s"),
    ("baseline.bow_matrix_mb", "MB"),
    ("baseline.tree_nodes_mean", "count"),
    ("baseline.tree_depth_max", "count"),
    ("baseline.train_forest.rss_growth_mb", "MB"),
    ("corpus.parse_olid_s", "s"),
    ("corpus.encode_s", "s"),
    ("resample.rebalance_s", "s"),
    ("metrics.s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

STEP_LAYERS = ("nn.bilstm_forward", "nn.bilstm_backward", "nn.conv1d_forward",
               "nn.conv1d_backward", "nn.adam_step")


def _div(num: float, den: float) -> float:
    return num / den if den else 0.0


def _nearest_rank(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer figures of one traced sample (all but trace.overhead_ratio)."""
    n = len(spans)
    name = [s[0] for s in spans]
    start = [s[1] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    parent = [s[3] for s in spans]
    counts = [s[5] or {} for s in spans]

    child_time = [0] * n
    for i in range(n):
        if parent[i] >= 0:
            child_time[parent[i]] += dur[i]
    self_time = [dur[i] - child_time[i] for i in range(n)]

    # context of each span, inherited from its parent (a parent is recorded first)
    in_train = [False] * n
    in_infer = [name[i] == INFERENCE for i in range(n)]
    for i in range(n):
        p = parent[i]
        if p >= 0:
            in_train[i] = in_train[p] or name[p] == "model.train"
            in_infer[i] = in_infer[i] or in_infer[p]
    top_nn = [name[i].startswith("nn.") and (parent[i] < 0 or not name[parent[i]].startswith("nn."))
              for i in range(n)]
    train_step = [in_train[i] and not in_infer[i] for i in range(n)]

    def total(names, where=None) -> float:
        return sum(dur[i] for i in range(n) if name[i] in names and (where is None or where[i]))

    def outer(prefixes) -> float:
        """Time under spans with these name prefixes, not counting nested ones twice."""
        hit = [name[i].startswith(prefixes) for i in range(n)]
        covered = [False] * n
        for i in range(n):
            p = parent[i]
            covered[i] = p >= 0 and (hit[p] or covered[p])
        return sum(dur[i] for i in range(n) if hit[i] and not covered[i])

    def count(key, names, where=None) -> float:
        return sum(counts[i].get(key, 0) for i in range(n)
                   if name[i] in names and (where is None or where[i]))

    ms = 1e-6
    sec = 1e-9
    steps = sum(1 for i in range(n) if name[i] == "nn.adam_step" and train_step[i])
    other = sum(dur[i] for i in range(n)
                if top_nn[i] and train_step[i] and name[i] not in STEP_LAYERS)

    step_ms = []
    trains = [i for i in range(n) if name[i] == "model.train"]
    for t in trains:
        inside = [i for i in range(n) if spans[t][1] <= start[i] <= spans[t][2]]
        ends = sorted(spans[i][2] for i in inside if name[i] == "nn.adam_step" and train_step[i])
        validations = [start[i] for i in inside if name[i] == INFERENCE]
        for a, b in zip(ends, ends[1:]):
            if not any(a <= v <= b for v in validations):  # an epoch boundary, not a step
                step_ms.append((b - a) * ms)

    pairs = sum(1 for x in name if x == "embeddings.cbow_pair_loss")
    tokens_epochs = sum(c.get("tokens", 0) * c.get("epochs", 0) for c in counts)
    trees = count("trees", {"baseline.train_forest"})
    growth = [c["rss_growth_mb"] for c in counts if "rss_growth_mb" in c]

    return {
        "nn.bilstm_forward.train_ms_per_step": _div(total({"nn.bilstm_forward"}, train_step) * ms, steps),
        "nn.bilstm_backward.ms_per_step": _div(total({"nn.bilstm_backward"}, train_step) * ms, steps),
        "nn.bilstm_forward.predict_ms_per_example": _div(
            total({"nn.bilstm_forward"}, in_infer) * ms, count("examples", {"nn.bilstm_forward"}, in_infer)),
        "nn.conv1d_forward.ms_per_step": _div(total({"nn.conv1d_forward"}, train_step) * ms, steps),
        "nn.conv1d_backward.ms_per_step": _div(total({"nn.conv1d_backward"}, train_step) * ms, steps),
        "nn.adam_step.ms_per_step": _div(total({"nn.adam_step"}, train_step) * ms, steps),
        "nn.other.ms_per_step": _div(other * ms, steps),
        "nn.adam_step.entries_per_step": _div(count("entries", {"nn.adam_step"}, train_step), steps),
        "model.self_ms_per_step": _div(sum(self_time[i] for i in trains) * ms, steps),
        "model.step_ms_p50": _nearest_rank(step_ms, 0.5),
        "model.step_ms_p99": _nearest_rank(step_ms, 0.99),
        "model.steps": float(steps),
        "model.save_model_s": total({"model.save_model"}) * sec,
        "model.load_model_s": total({"model.load_model"}) * sec,
        "embeddings.cbow_pair_loss.us_per_pair": _div(total({"embeddings.cbow_pair_loss"}) * 1e-3, pairs),
        "embeddings.update.us_per_pair": _div(
            sum(self_time[i] for i in range(n) if name[i] == "embeddings.train_cbow") * 1e-3, pairs),
        "embeddings.cbow_pair_loss.pairs": float(pairs),
        "embeddings.pairs_per_token": _div(pairs, tokens_epochs),
        "embeddings.init_s": total({"embeddings.FastTextModel.init"}) * sec,
        "embeddings.save_fasttext_s": total({"embeddings.save_fasttext"}) * sec,
        "embeddings.save_fasttext_mb": float(count("mb", {"embeddings.save_fasttext"})),
        "embeddings.load_text_embeddings_s": total({"embeddings.load_text_embeddings"}) * sec,
        "embeddings.build_embedding_matrix_s": total({"embeddings.build_embedding_matrix"}) * sec,
        "baseline.train_forest.ms_per_tree": _div(total({"baseline.train_forest"}) * ms, trees),
        "baseline.predict_forest.us_per_row_tree": _div(
            total({"baseline.predict_forest"}) * 1e-3, count("row_trees", {"baseline.predict_forest"})),
        "baseline.bow_matrix_s": total({"baseline.bow_matrix"}) * sec,
        "baseline.bow_matrix_mb": max((c["mb"] for i, c in enumerate(counts)
                                       if name[i] == "baseline.bow_matrix"), default=0.0),
        "baseline.tree_nodes_mean": _div(count("nodes", {"baseline.train_forest"}), trees),
        "baseline.tree_depth_max": float(max((c.get("depth", 0) for c in counts), default=0)),
        "baseline.train_forest.rss_growth_mb": max(growth, default=0.0),
        "corpus.parse_olid_s": outer(("corpus.parse_olid",)) * sec,
        "corpus.encode_s": outer(("corpus.encode",)) * sec,
        "resample.rebalance_s": outer(("resample.rebalance",)) * sec,
        "metrics.s": outer(("metrics.",)) * sec,
    }
