"""Span recording for the traced run, installed from the benchmark's side.

Nothing in ``src/`` is changed.  :func:`instrument` replaces each layer's
public entry point *at the place where its caller looks it up* (a class
attribute, or a module attribute for functions imported by name) with a
wrapper that records a span, and puts every original back on exit.

A span carries its parent (the innermost open span on the same thread),
so a layer's self time is its duration minus its children's.  A wrapper
opens no span inside a span of the same name: a subclass method that
calls its base (``FewShotLLM.translate`` -> ``GrammarSeq2Seq.translate``)
or a method that calls a sibling under the same span name is counted
once.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanLog:
    """Thread-aware in-memory span recorder."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_name(self) -> str | None:
        stack = self._stack()
        return self.spans[stack[-1]].name if stack else None

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        record = Span(name, stack[-1] if stack else None, time.perf_counter())
        with self._lock:
            self.spans.append(record)
            index = len(self.spans) - 1
        stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its children."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        return [
            span.duration - child_time[index]
            for index, span in enumerate(self.spans)
        ]


# ----------------------------------------------------------------------
# Per-span counters, read from a wrapped call's arguments and result.


def _count_len(key):
    def count(args, kwargs, result, counts):
        counts[key] = len(result)

    return count


def _count_stage1(args, kwargs, result, counts):
    # DualTowerRanker.rank(self, question, sql_texts, top_k=...)
    counts["candidates"] = len(args[2])
    counts["kept"] = len(result)


def _count_stage2(args, kwargs, result, counts):
    # MultiGrainedRanker.rank(self, question, candidates)
    counts["items"] = len(args[2])


def _count_lint(args, kwargs, result, counts):
    from repro.sqlkit.diagnostics import error_codes

    counts["rejected"] = int(bool(error_codes(result)))


def _count_verify(args, kwargs, result, counts):
    counts["executed"] = result.checked
    counts["demoted"] = result.demoted


def _count_repair(args, kwargs, result, counts):
    # run_repair(pipeline, question, db, ranked, verify_result, tried,
    #            policy, report, deadline=None)
    report = kwargs["report"] if "report" in kwargs else args[7]
    counts["attempts"] = report.repair_attempts


def _count_translate(args, kwargs, result, counts):
    trace = result.report.trace or {}
    counts["deduped"] = sum(
        child.get("attributes", {}).get("deduped", 0)
        for child in trace.get("children", ())
        if child.get("name") == "generate"
    )


def _entry_points():
    """(owner, attribute, span name, counter) for every wrapped entry point."""
    from repro.core import classifier as classifier_mod
    from repro.core import generation, negatives, pipeline, verify
    from repro.core.classifier import MetadataClassifier
    from repro.core.compose import MetadataComposer
    from repro.core.rank_stage1 import DualTowerRanker
    from repro.core.rank_stage2 import MultiGrainedRanker
    from repro.eval import evaluate, metrics
    from repro.models import beam, cues
    from repro.models.lexicon import Lexicon
    from repro.models.llm import FewShotLLM
    from repro.models.seq2seq import GrammarSeq2Seq
    from repro.models.sketch import SketchModel
    from repro.serve.service import TranslationService
    from repro.sqlkit.analyze import SemanticAnalyzer

    return [
        # Setup.
        (GrammarSeq2Seq, "fit", "fit.model", None),
        (FewShotLLM, "fit", "fit.model", None),
        (MetadataClassifier, "fit", "fit.classifier", None),
        (DualTowerRanker, "fit", "fit.stage1", None),
        (MultiGrainedRanker, "fit", "fit.stage2", None),
        (negatives, "collect_negative_samples", "negatives", None),
        # Classification and composition.
        (MetadataClassifier, "predict", "classify", None),
        (MetadataComposer, "compose", "compose", _count_len("compositions")),
        # Generation and decoding.
        (generation.CandidateGenerator, "generate", "generate",
         _count_len("candidates")),
        (GrammarSeq2Seq, "translate", "models.translate", None),
        (FewShotLLM, "translate", "models.translate", None),
        (cues, "extract_cues", "models.cues", None),
        (classifier_mod, "extract_cues", "models.cues", None),
        (SketchModel, "score_sketches", "models.sketch", None),
        (FewShotLLM, "retrieve", "models.retrieve", None),
        (beam, "run", "models.beam", None),
        (Lexicon, "score_column", "models.lexicon", None),
        (Lexicon, "score_table", "models.lexicon", None),
        # Lint gate and value grounding.
        (SemanticAnalyzer, "analyze", "lint", _count_lint),
        (generation, "ground_values", "ground", None),
        # Ranking, verify and repair.
        (DualTowerRanker, "rank", "stage1", _count_stage1),
        (MultiGrainedRanker, "rank", "stage2", _count_stage2),
        (pipeline, "verify_candidates", "verify", _count_verify),
        (pipeline, "run_repair", "repair", _count_repair),
        # Execution and scoring.
        (verify, "execute", "executor", None),
        (metrics, "execute", "executor", None),
        (evaluate, "execution_match", "eval.execution_match", None),
        (evaluate, "exact_match", "eval.exact_match", None),
        (evaluate, "evaluate_metasql", "eval", None),
        # Pipeline and serving.
        (pipeline.MetaSQL, "translate_ranked_report", "pipeline",
         _count_translate),
        (pipeline.MetaSQL, "translate_many", "pipeline.many", None),
        (TranslationService, "swap", "serve.swap", None),
    ]


def _wrapper(log: SpanLog, original, name: str, count):
    def wrapped(*args, **kwargs):
        if log.current_name() == name:
            return original(*args, **kwargs)
        with log.span(name) as span:
            result = original(*args, **kwargs)
            if count is not None:
                count(args, kwargs, result, span.counts)
            return result

    wrapped.__wrapped__ = original
    return wrapped


@contextmanager
def instrument(log: SpanLog):
    """Install span wrappers on every entry point; restore them on exit."""
    installed = []
    try:
        for owner, attribute, name, count in _entry_points():
            had_own = attribute in vars(owner)
            original = getattr(owner, attribute)
            setattr(owner, attribute, _wrapper(log, original, name, count))
            installed.append((owner, attribute, had_own, original))
        yield log
    finally:
        for owner, attribute, had_own, original in reversed(installed):
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)


# ----------------------------------------------------------------------
# Per-layer metrics from a finished span log.

#: span name -> metric for its inclusive time per question.
_TIMED = {
    "classify": "classify.ms_per_q",
    "generate": "generate.ms_per_q",
    "models.translate": "models.translate_ms_per_q",
    "models.cues": "models.cues_ms_per_q",
    "models.sketch": "models.sketch_ms_per_q",
    "models.retrieve": "models.retrieve_ms_per_q",
    "models.beam": "models.beam_ms_per_q",
    "models.lexicon": "models.lexicon_ms_per_q",
    "lint": "lint.ms_per_q",
    "ground": "ground.ms_per_q",
    "stage1": "stage1.ms_per_q",
    "stage2": "stage2.ms_per_q",
    "verify": "verify.ms_per_q",
    "repair": "repair.ms_per_q",
    "executor": "executor.ms_per_q",
}

#: span name -> metric for its calls per question.
_CALLS = {
    "models.translate": "models.translate_calls_per_q",
    "models.cues": "models.cues_calls_per_q",
    "models.sketch": "models.sketch_calls_per_q",
    "models.lexicon": "models.lexicon_calls_per_q",
    "lint": "lint.calls_per_q",
    "executor": "executor.calls_per_q",
}

#: (metric, span name, counter key) summed per question.
_COUNTED = (
    ("classify.compositions_per_q", "compose", "compositions"),
    ("generate.candidates_per_q", "generate", "candidates"),
    ("lint.rejected_per_q", "lint", "rejected"),
    ("stage1.candidates_per_q", "stage1", "candidates"),
    ("stage1.kept_per_q", "stage1", "kept"),
    ("stage2.items_per_q", "stage2", "items"),
    ("verify.executed_per_q", "verify", "executed"),
    ("verify.demoted_per_q", "verify", "demoted"),
    ("repair.attempts_per_q", "repair", "attempts"),
    ("pipeline.deduped_per_q", "pipeline", "deduped"),
)


def phase_metrics(log: SpanLog, questions: int, busy: float) -> dict[str, float]:
    """Per-question layer metrics for a traced timed phase.

    *busy* is the phase's per-question latency as the load loop measured
    it, summed over the questions (a chunk's duration once per chunk).
    """
    spans = log.spans
    self_times = log.self_times()
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    counted: dict[tuple[str, str], float] = {}
    for span, self_time in zip(spans, self_times):
        total[span.name] = total.get(span.name, 0.0) + span.duration
        own[span.name] = own.get(span.name, 0.0) + self_time
        calls[span.name] = calls.get(span.name, 0) + 1
        for key, value in span.counts.items():
            counted[span.name, key] = counted.get((span.name, key), 0) + value
    per_q = 1.0 / questions
    out: dict[str, float] = {}
    for name, metric in _TIMED.items():
        out[metric] = total.get(name, 0.0) * 1000 * per_q
    for name, metric in _CALLS.items():
        out[metric] = calls.get(name, 0) * per_q
    # Compose is part of classification: predict, then compose.
    out["classify.ms_per_q"] += total.get("compose", 0.0) * 1000 * per_q
    for metric, name, key in _COUNTED:
        out[metric] = counted.get((name, key), 0) * per_q
    out["generate.self_ms_per_q"] = own.get("generate", 0.0) * 1000 * per_q
    out["pipeline.self_ms_per_q"] = (
        own.get("pipeline", 0.0) + own.get("pipeline.many", 0.0)
    ) * 1000 * per_q
    # The eval module's own cost: scoring and gold execution, i.e. the
    # evaluate_metasql call minus the translation it drives.
    translate_in_eval = sum(
        span.duration
        for span in spans
        if span.name == "pipeline.many"
        and span.parent is not None
        and spans[span.parent].name == "eval"
    )
    out["eval.ms_per_q"] = (
        (total.get("eval", 0.0) - translate_in_eval) * 1000 * per_q
    )
    # Swaps run beside the requests, not inside one: their trees are left
    # out of the time that adds up to the latency.
    root_of: list[int] = []
    swap_self = request_self = 0.0
    for index, (span, self_time) in enumerate(zip(spans, self_times)):
        root_of.append(index if span.parent is None else root_of[span.parent])
        if spans[root_of[index]].name == "serve.swap":
            swap_self += self_time
        elif span.name == "request":
            request_self += self_time
    served = sum(self_times) - swap_self
    out["trace.latency_ms_per_q"] = busy * 1000 * per_q
    out["trace.self_ms_per_q"] = served * 1000 * per_q
    # The latency no layer's span covers: the benchmark's own request
    # spans' self time plus whatever the loop timed outside every span.
    out["trace.unattributed_pct"] = (
        (busy - (served - request_self)) / busy * 100 if busy else 0.0
    )
    return out


def setup_metrics(log: SpanLog) -> dict[str, float]:
    """Seconds per training step of one traced set-up."""
    total: dict[str, float] = {}
    for span in log.spans:
        total[span.name] = total.get(span.name, 0.0) + span.duration
    return {
        "setup.data_s": total.get("data", 0.0),
        "setup.model_fit_s": total.get("fit.model", 0.0),
        "setup.classifier_fit_s": total.get("fit.classifier", 0.0),
        # Training generates candidate sets to supervise the rankers.
        "setup.ranker_generate_s": total.get("generate", 0.0),
        "setup.negatives_s": total.get("negatives", 0.0),
        "setup.stage1_fit_s": total.get("fit.stage1", 0.0),
        "setup.stage2_fit_s": total.get("fit.stage2", 0.0),
    }
