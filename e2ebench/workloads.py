"""The benchmark's two workloads against a real trained MetaSQL pipeline.

Each run builds a fixed spider-sim corpus and trains the pipeline
(set-up), then repeats whole *rounds* of one workload until the run
length has passed (the timed phase).  The run's seed orders the
questions and draws the served requests' questions; the corpus, the
popularity ranking and the serving send times stay fixed, so runs
differ in their traffic and not in what is asked.  Every round starts with the eight LRU caches emptied, so rounds
are alike and a cache hit can only come from reuse inside the round.
After the timed phase every output is checked; see :func:`check`.
"""

from __future__ import annotations

import gc
import random
import resource
import shutil
import statistics
import sys
import threading
import time
from concurrent.futures import wait as wait_futures
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.classifier import ClassifierConfig
from repro.core.pipeline import MetaSQL, MetaSQLConfig
from repro.data.dataset import Dataset
from repro.data.spider import build_spider
from repro.eval import evaluate
from repro.eval.metrics import execution_match
from repro.models.registry import create_model
from repro.obs.metrics import MetricsRegistry
from repro.perf import memo
from repro.perf.cache import LRUCache
from repro.serve import CheckpointStore, ServiceConfig, TranslationService
from repro.sqlkit.compare import exact_match
from repro.sqlkit.printer import to_sql

import stats
import tracing
from sqlcheck import SqliteChecker

#: Corpus: 25 spider-sim domains -> 500 train and 150 dev questions.
CORPUS_SEED = 11
TRAIN_PER_DOMAIN = 20
DEV_PER_DOMAIN = 6
#: Training size: small enough that three set-ups fit one run.
RANKER_TRAIN_QUESTIONS = 30
NEGATIVE_SAMPLES = 60
CLASSIFIER_EPOCHS = 10
#: Set-ups per untraced run; setup_s is their median.  The timed phase is
#: cut into as many slices, one after each set-up, so that it samples the
#: machine's speed at three moments rather than one.
SETUP_REPEATS = 3
#: offline_llm: questions per translate_many call.
CHUNK = 10
#: serve_skewed: open-loop arrival rate (1/s), popularity skew, swap points
#: (as shares of a window's requests) and service shape.
RATE = 6.0
ZIPF_EXPONENT = 1.1
SWAP_AT = (1 / 3, 2 / 3)
#: One worker: with two, overlapping requests share the interpreter lock,
#: and p90 grew faster than the machine's slowdown (2.0-2.7 times the CPU
#: time per question across runs, against 1.8-2.3 with one).
WORKERS = 1

MODELS = {
    "offline_llm": "gpt4",
    "serve_skewed": "lgesql",
}
WORKLOADS = tuple(MODELS)

END_TO_END = (
    "setup_s",
    "throughput_qps",
    "latency_p50_ms",
    "latency_p90_ms",
    "cpu_ms_per_q",
    "ex_correct",
    "em_correct",
    "peak_rss_mb",
)

CACHE_NAMES = (
    "sql_surface",
    "unit_phrases",
    "normal_sql",
    "stage1.features",
    "stage1.query_embed",
    "stage1.sql_embed",
    "stage2.sentence",
    "stage2.phrase",
)


# ----------------------------------------------------------------------
# Caches.


def caches(pipelines) -> list[LRUCache]:
    """The process-wide rendering memos plus each pipeline's ranker LRUs."""
    found = [memo.SURFACE_CACHE, memo.PHRASE_CACHE, memo.NORMAL_CACHE]
    for pipeline in pipelines:
        for ranker in (pipeline.stage1, pipeline.stage2):
            found.extend(
                value
                for value in vars(ranker).values()
                if isinstance(value, LRUCache)
            )
    return found


def reset_caches(pipeline) -> None:
    memo.invalidate_all()
    pipeline.stage1.invalidate_caches()
    pipeline.stage2.invalidate_caches()


def cache_snapshot(pipelines) -> dict[int, tuple[str, dict]]:
    return {id(cache): (cache.name, cache.stats()) for cache in caches(pipelines)}


def cache_metrics(before: dict, after: dict) -> dict[str, float]:
    """Hit ratio per cache name and evictions between two snapshots."""
    hits = dict.fromkeys(CACHE_NAMES, 0)
    lookups = dict.fromkeys(CACHE_NAMES, 0)
    evictions = 0
    for key, (name, now) in after.items():
        then = before.get(key, (name, {"hits": 0, "misses": 0, "evictions": 0}))[1]
        hits[name] += now["hits"] - then["hits"]
        lookups[name] += (
            now["hits"] + now["misses"] - then["hits"] - then["misses"]
        )
        evictions += now["evictions"] - then["evictions"]
    out = {
        f"perf.{name}.hit_ratio": hits[name] / lookups[name] if lookups[name] else 0.0
        for name in CACHE_NAMES
    }
    out["perf.evictions"] = evictions
    return out


# ----------------------------------------------------------------------
# Set-up.


@dataclass
class Setup:
    workload: str
    seed: int
    bench: object
    pipeline: MetaSQL
    setup_seconds: float
    run_seconds: float
    store: CheckpointStore | None = None
    service: TranslationService | None = None

    @property
    def window(self) -> float:
        """serve_skewed: the length of one round, a slice of the run."""
        return self.run_seconds / SETUP_REPEATS

    @property
    def items(self) -> list[tuple[str, object]]:
        dev = self.bench.dev
        return [(e.question, dev.database(e.db_id)) for e in dev.examples]


def pipeline_config() -> MetaSQLConfig:
    return MetaSQLConfig(
        ranker_train_questions=RANKER_TRAIN_QUESTIONS,
        negative_samples=NEGATIVE_SAMPLES,
        classifier=ClassifierConfig(epochs=CLASSIFIER_EPOCHS),
    )


def start_service(pipeline, requests: int) -> TranslationService:
    """Batching workers, no deadlines, a queue that refuses nothing."""
    config = ServiceConfig(
        workers=WORKERS,
        queue_limit=requests + 1,
        batching=True,
        jitter_seed=0,
    )
    return TranslationService(pipeline, config, registry=MetricsRegistry())


def serve_requests(seconds: float) -> int:
    return max(1, round(RATE * seconds))


def serve_schedule(seed: int, seconds: float, population: int):
    """(send offsets, dev indices) of a run's whole request stream."""
    count = serve_requests(seconds)
    # The send times are one fixed Poisson stream, like the corpus: how
    # many requests arrive close together sets p90, and a stream drawn
    # from the run's seed made p90 spread by a fifth between seeds.
    offsets = stats.poisson_arrivals(count, seconds, CORPUS_SEED)
    # Popularity ranks the same questions in every run, as a query log's
    # head would; the seed draws the requests from it.
    ranking = random.Random(CORPUS_SEED).sample(range(population), population)
    picks = stats.zipf_draws(ranking, count, ZIPF_EXPONENT, seed)
    return offsets, picks


def train(model: str, log=None) -> tuple[object, MetaSQL]:
    """Build the fixed corpus and train a pipeline on *model*."""
    span = log.span if log is not None else lambda name: nullcontext()
    with span("data"):
        bench = build_spider(
            seed=CORPUS_SEED,
            train_per_domain=TRAIN_PER_DOMAIN,
            dev_per_domain=DEV_PER_DOMAIN,
        )
    pipeline = MetaSQL(create_model(model), pipeline_config())
    pipeline.train(bench.train)
    return bench, pipeline


def set_up(workload, seed, seconds, workdir: Path, log=None) -> Setup:
    """Build the inputs, train, and (serving) checkpoint and start."""
    memo.invalidate_all()
    start = time.perf_counter()
    bench, pipeline = train(MODELS[workload], log)
    setup = Setup(workload, seed, bench, pipeline, 0.0, seconds)
    if workload == "serve_skewed":
        setup.store = CheckpointStore(workdir / "checkpoints")
        setup.store.save(pipeline)
        setup.service = start_service(pipeline, serve_requests(seconds))
    setup.setup_seconds = time.perf_counter() - start
    return setup


def tear_down(setup: Setup) -> None:
    if setup.service is not None:
        setup.service.shutdown(wait=True)
        setup.service = None


# ----------------------------------------------------------------------
# Rounds.


@dataclass
class Answer:
    index: int  # dev question
    ranked: tuple[str, ...] | None  # None when the operation failed
    top1: object = None
    ex: bool | None = None  # the eval module's own verdict, when it ran


@dataclass
class Round:
    latencies: list[float] = field(default_factory=list)
    #: Summed per-question latency as the loop timed it; a chunk counts once.
    busy: float = 0.0
    answers: list[Answer] = field(default_factory=list)
    late_max: float = 0.0
    serve: dict = field(default_factory=dict)
    pipelines: list = field(default_factory=list)


def _answer(index, result) -> Answer:
    if result is None or not result.translations or result.report.degraded:
        return Answer(index, None)
    return Answer(
        index,
        tuple(t.sql for t in result.translations),
        result.translations[0].query,
    )


def offline_round(setup: Setup, span) -> Round:
    pipeline = setup.pipeline
    dev = setup.bench.dev
    out = Round(pipelines=[pipeline])
    # Consecutive chunks of the dev set, sent in seeded order: a chunk's
    # latency depends on which questions share it, so that stays fixed.
    count = len(dev.examples)
    chunks = [
        list(range(first, min(first + CHUNK, count)))
        for first in range(0, count, CHUNK)
    ]
    random.Random(setup.seed).shuffle(chunks)
    previous = time.perf_counter()
    for indices in chunks:
        chunk = Dataset(
            name=f"{dev.name}[{indices[0]}:{indices[-1] + 1}]",
            examples=[dev.examples[index] for index in indices],
            databases=dev.databases,
        )
        sent = time.perf_counter()
        out.late_max = max(out.late_max, sent - previous)
        with span("request"):
            try:
                records = evaluate.evaluate_metasql(pipeline, chunk).records
            except Exception as exc:  # the whole chunk failed
                print(f"offline_llm: {chunk.name}: {exc!r}", file=sys.stderr)
                records = [None] * len(chunk.examples)
        previous = time.perf_counter()
        out.busy += previous - sent
        for index, record in zip(indices, records):
            out.latencies.append(previous - sent)
            if record is None or not record.predictions or record.degraded:
                out.answers.append(Answer(index, None))
                continue
            out.answers.append(
                Answer(
                    index,
                    tuple(to_sql(q) for q in record.predictions),
                    record.predictions[0],
                    record.execution_hit,
                )
            )
    return out


def serve_round(setup: Setup, part: int) -> Round:
    """Window *part* of the run's request stream, on a fresh service."""
    window = setup.window
    stream = serve_schedule(
        setup.seed, setup.run_seconds, len(setup.bench.dev.examples)
    )
    chosen = [
        (offset - part * window, index)
        for offset, index in zip(*stream)
        if part * window <= offset < (part + 1) * window
    ]
    offsets = [offset for offset, __ in chosen]
    picks = [index for __, index in chosen]
    swap_offsets = [
        offsets[int(len(offsets) * share)] for share in SWAP_AT if offsets
    ]
    service = setup.service or start_service(setup.pipeline, len(offsets))
    setup.service = None  # each round gets a fresh service
    items = setup.items
    out = Round(pipelines=[setup.pipeline])
    futures = [None] * len(offsets)
    done = [0.0] * len(offsets)
    late = [0.0] * len(offsets)
    swap_seconds: list[float] = []
    errors: list[str] = []
    begin = time.perf_counter() + 0.005

    def pause_until(moment: float) -> None:
        delay = moment - time.perf_counter()
        if delay > 0:
            time.sleep(delay)

    def send() -> None:
        for position, (offset, index) in enumerate(zip(offsets, picks)):
            due = begin + offset
            pause_until(due)
            late[position] = time.perf_counter() - due
            try:
                future = service.submit(*items[index])
            except Exception as exc:  # a refusal is a failed operation
                errors.append(f"request {position}: {exc!r}")
                continue
            future.add_done_callback(
                lambda __, p=position: done.__setitem__(p, time.perf_counter())
            )
            futures[position] = future
        pause_until(begin + window)  # the round lasts the whole window

    def swap() -> None:
        for offset in swap_offsets:
            pause_until(begin + offset)
            started = time.perf_counter()
            try:
                service.swap(setup.store)
            except Exception as exc:
                errors.append(f"swap: {exc!r}")
                continue
            swap_seconds.append(time.perf_counter() - started)
            out.pipelines.append(service.pipeline)

    threads = [threading.Thread(target=send), threading.Thread(target=swap)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    pending = [f for f in futures if f is not None]
    wait_futures(pending, timeout=120)
    for position, (offset, index) in enumerate(zip(offsets, picks)):
        future = futures[position]
        result = None
        if future is not None and future.done():
            try:
                result = future.result()
            except Exception as exc:
                errors.append(f"request {position}: {exc!r}")
        answer = _answer(index, result)
        out.answers.append(answer)
        if answer.ranked is not None:
            out.latencies.append(done[position] - (begin + offset))
    out.busy = sum(out.latencies)
    service.shutdown(wait=True)
    for error in errors:
        print(f"serve_skewed: {error}", file=sys.stderr)
    registry = service.registry
    batch = registry.get("metasql_serve_batch_size")
    queue_wait = registry.get("serve_queue_wait_seconds").labels(
        tenant="default"
    )
    out.late_max = max(late, default=0.0)
    out.serve = {
        "queue_wait_ms_p50": (
            queue_wait.quantile(0.5) * 1000 if queue_wait.count else 0.0
        ),
        "batches": batch.count,
        "batched": batch.sum,
        "swap_ms": statistics.mean(swap_seconds) * 1000 if swap_seconds else 0.0,
    }
    return out


@dataclass
class Phase:
    rounds: list[Round]
    wall: float
    cpu: float

    @property
    def answers(self) -> list[Answer]:
        return [a for r in self.rounds for a in r.answers]

    @property
    def answered(self) -> int:
        return sum(a.ranked is not None for a in self.answers)

    @property
    def qps(self) -> float:
        return self.answered / self.wall


def timed_phase(
    setup: Setup, until: float, log=None, already: float = 0.0, first: int = 0
) -> Phase:
    """Whole rounds until *already* plus this phase's time reach *until*.

    *first* numbers the phase's first round within the run; it picks the
    window of the serving stream.
    """
    span = log.span if log is not None else lambda name: nullcontext()
    rounds: list[Round] = []
    start, start_cpu = time.perf_counter(), time.process_time()
    while True:
        reset_caches(setup.pipeline)
        if setup.workload == "offline_llm":
            rounds.append(offline_round(setup, span))
        else:
            part = (first + len(rounds)) % SETUP_REPEATS
            rounds.append(serve_round(setup, part))
        if already + time.perf_counter() - start >= until:
            break
    return Phase(
        rounds, time.perf_counter() - start, time.process_time() - start_cpu
    )


def merge(phases: list[Phase]) -> Phase:
    return Phase(
        [r for phase in phases for r in phase.rounds],
        sum(phase.wall for phase in phases),
        sum(phase.cpu for phase in phases),
    )


# ----------------------------------------------------------------------
# Output checks.


def check(setup: Setup, phases: list[Phase]) -> tuple[list[str], dict]:
    """Check every answer; return (failed checks, EX/EM counts).

    - Every answer equals the ranked SQL of serial
      ``translate_ranked_report`` for its question, in the same process.
    - Each top-1 EX verdict is recomputed on SQLite and must agree with
      ``execution_match`` (and with the eval module's own verdict).
    - MetaSQL's top-1 EX is at least the base model's own top-1 EX.
    """
    problems: list[str] = []
    items = setup.items
    dev = setup.bench.dev
    answers = [a for phase in phases for a in phase.answers]
    reference = {
        index: _answer(
            index, setup.pipeline.translate_ranked_report(question, db)
        )
        for index, (question, db) in enumerate(items)
    }
    mismatched = sum(
        answer.ranked is not None
        and answer.ranked != reference[answer.index].ranked
        for answer in answers
    )
    if mismatched:
        problems.append(
            f"{mismatched} answers differ from serial translate_ranked_report"
        )

    sqlite = SqliteChecker()
    verdicts: dict[int, bool] = {}
    em = disagree = 0
    try:
        for index, example in enumerate(dev.examples):
            answer = reference.get(index)
            if answer is None or answer.ranked is None:
                continue
            db = dev.database(example.db_id)
            verdicts[index] = execution_match(answer.top1, example.sql, db)
            again = sqlite.execution_match(
                answer.ranked[0], example.sql, to_sql(example.sql), db
            )
            disagree += verdicts[index] != again
            em += exact_match(answer.top1, example.sql)
    finally:
        sqlite.close()
    ex = sum(verdicts.values())
    if disagree:
        problems.append(f"sqlite3 disagrees with execution_match on {disagree}")
    eval_disagree = sum(
        a.ex is not None and a.ex != verdicts.get(a.index) for a in answers
    )
    if eval_disagree:
        problems.append(f"the eval module's EX disagrees on {eval_disagree}")
    base = evaluate.evaluate_model(setup.pipeline.model, dev)
    base_ex = sum(record.execution_hit for record in base.records)
    if ex < base_ex:
        problems.append(f"MetaSQL EX {ex} < base model EX {base_ex}")
    return problems, {"ex": ex, "em": em, "base_ex": base_ex}


# ----------------------------------------------------------------------
# Runs.


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _latency_metrics(phase: Phase) -> dict[str, float]:
    """p50, and p90 when the phase gave at least 100 samples."""
    samples = [s for r in phase.rounds for s in r.latencies]
    return {
        f"latency_{name}_ms": value * 1000
        for name, value in stats.latency_summary(samples).items()
    }


def _result(problems, phases, metrics) -> dict:
    attempted = sum(len(p.answers) for p in phases)
    failed = sum(a.ranked is None for p in phases for a in p.answers)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_untraced(workload, seed, seconds, workdir: Path) -> dict:
    """Set up SETUP_REPEATS times, each followed by a slice of the timed
    phase; check every output; return the end-to-end metrics."""
    setups: list[float] = []
    slices: list[Phase] = []
    setup = None
    for repeat in range(SETUP_REPEATS):
        if setup is not None:
            tear_down(setup)
            setup = None
            gc.collect()
        shutil.rmtree(workdir, ignore_errors=True)
        setup = set_up(workload, seed, seconds, workdir)
        setups.append(setup.setup_seconds)
        until = seconds * (repeat + 1) / SETUP_REPEATS
        slices.append(
            timed_phase(
                setup,
                until,
                already=sum(s.wall for s in slices),
                first=sum(len(s.rounds) for s in slices),
            )
        )
        for finished in slices[-1].rounds:
            finished.pipelines = []  # let this set-up's pipelines go
    print(f"setup seconds: {[round(s, 3) for s in setups]}", file=sys.stderr)
    tear_down(setup)
    phase = merge(slices)
    problems, counts = check(setup, [phase])
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_qps": phase.qps,
        **_latency_metrics(phase),
        "cpu_ms_per_q": phase.cpu * 1000 / max(1, phase.answered),
        "ex_correct": counts["ex"],
        "em_correct": counts["em"],
        "peak_rss_mb": peak_rss_mb(),
    }
    return _result(problems, [phase], metrics)


#: The traced closed loop's self times must add up to its latency within
#: this share, and at most this share of it may lie outside every layer.
SELF_TIME_TOLERANCE = 0.01
UNATTRIBUTED_MAX_PCT = 2.0


def attribution_problems(workload, metrics) -> list[str]:
    """Check that the traced self times account for the traced latency.

    In the closed loop the benchmark's request span is the whole of a
    chunk's latency, so the self times must add up to it and the
    request spans' own share must be small: a layer whose wrapper lost
    its entry point shows there.  In the open loop a latency also holds
    queue wait and the batcher's collect tick, which no span covers, so
    the self times may only not exceed it.
    """
    latency = metrics["trace.latency_ms_per_q"]
    own = metrics["trace.self_ms_per_q"]
    unattributed = metrics["trace.unattributed_pct"]
    if workload == "serve_skewed":
        if own > latency:
            return [f"self times {own:.3f} ms/q exceed latency {latency:.3f}"]
        return []
    problems = []
    if abs(own - latency) > SELF_TIME_TOLERANCE * latency:
        problems.append(
            f"self times sum to {own:.3f} ms/q, latency {latency:.3f}"
        )
    if unattributed > UNATTRIBUTED_MAX_PCT:
        problems.append(f"{unattributed:.2f}% of latency is in no layer")
    return problems


def run_traced(workload, seed, seconds, workdir: Path) -> dict:
    """One traced set-up, an untraced then a traced phase; per-layer metrics."""
    setup_log = tracing.SpanLog()
    shutil.rmtree(workdir, ignore_errors=True)
    with tracing.instrument(setup_log):
        setup = set_up(workload, seed, seconds, workdir, log=setup_log)
    # Half the run untraced, half traced, over the same rounds.
    plain = timed_phase(setup, seconds / 2)
    log = tracing.SpanLog()
    before = cache_snapshot([setup.pipeline])
    with tracing.instrument(log):
        traced = timed_phase(setup, seconds / 2, log=log)
    last = traced.rounds[-1]
    after = cache_snapshot(
        {id(p): p for r in traced.rounds for p in r.pipelines}.values()
    )
    tear_down(setup)
    problems, __ = check(setup, [plain, traced])

    metrics = tracing.setup_metrics(setup_log)
    metrics.update(
        tracing.phase_metrics(
            log, max(1, traced.answered), sum(r.busy for r in traced.rounds)
        )
    )
    problems.extend(attribution_problems(workload, metrics))
    metrics.update(cache_metrics(before, after))
    metrics["perf.entries"] = sum(
        len(cache) for cache in caches(last.pipelines[-1:])
    )
    serve_rounds = [r.serve for r in traced.rounds if r.serve]
    if serve_rounds:
        batches = sum(s["batches"] for s in serve_rounds)
        metrics.update({
            "serve.queue_wait_ms_p50": statistics.median(
                s["queue_wait_ms_p50"] for s in serve_rounds
            ),
            "serve.batch_size_mean": sum(s["batched"] for s in serve_rounds)
            / max(1, batches),
            "serve.batches": batches,
            "serve.swap_ms": statistics.mean(s["swap_ms"] for s in serve_rounds),
        })
    else:
        metrics.update({
            "serve.queue_wait_ms_p50": 0.0,
            "serve.batch_size_mean": 0.0,
            "serve.batches": 0,
            "serve.swap_ms": 0.0,
        })
    metrics["loadgen.late_ms_max"] = max(r.late_max for r in traced.rounds) * 1000
    # CPU per question: the inverse of throughput in the closed loop, and
    # in the open loop (whose throughput the schedule fixes) the cost that
    # would show as throughput at saturation.
    metrics["trace.overhead_pct"] = (
        traced.cpu / traced.answered / (plain.cpu / plain.answered) - 1.0
    ) * 100
    return _result(problems, [plain, traced], metrics)
