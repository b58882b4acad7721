"""Batch question answering: dataset loading, exact-match scoring, aggregation.

Dataset format: JSONL, one object per line with fields ``id``, ``question``,
``answers`` (non-empty array of strings), and optional ``start_entities``
(array of entity labels; when absent or empty the engine falls back to
gateway-based entity extraction).
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .engine import Engine, EngineConfig
from .errors import DataError, FastToGError
from .gateway import normalize_answer
from .kg import KnowledgeGraph


@dataclass(frozen=True)
class QARecord:
    id: str
    question: str
    gold_answers: tuple[str, ...]
    start_entities: tuple[str, ...] = ()


@dataclass
class EvalReport:
    n: int
    hit_at_1: float
    avg_depth: float
    avg_depth_all_degraded: bool
    avg_calls: float
    degraded_fraction: float
    per_item: list[dict] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    def to_table(self) -> str:
        lines = [
            f"{'id':<24} {'correct':<8} {'depth':<6} {'calls':<6} {'degraded':<8}",
            "-" * 56,
        ]
        errors = 0
        for item in self.per_item:
            row = (
                f"{item['id']:<24} {str(item['correct']):<8} "
                f"{item['depth']:<6} {item['calls']:<6} {str(item['degraded']):<8}"
            )
            if "error" in item:
                errors += 1
                row = f"{row.rstrip()}  error: {item['error']}"
            lines.append(row)
        lines.append("-" * 56)
        lines.append(
            f"n={self.n}  hit@1={self.hit_at_1:.4f}  avg_depth={self.avg_depth:.2f}"
            f"{' (all degraded)' if self.avg_depth_all_degraded else ''}"
            f"  avg_calls={self.avg_calls:.2f}  degraded={self.degraded_fraction:.2f}"
            f"{f'  errors={errors}' if errors else ''}"
        )
        return "\n".join(lines)


def check_count(name: str, value: int | None) -> None:
    """Reject a count below 1, naming it; ``None`` means unset."""
    if value is not None and value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def load_dataset(
    path: str | Path, sample_n: int | None = None, seed: int = 0
) -> list[QARecord]:
    """Parse a JSONL dataset, optionally subsampling with a fixed seed."""
    check_count("sample_n", sample_n)
    records: list[QARecord] = []
    with open(path, encoding="utf-8") as fh:
        for idx, line in enumerate(fh):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(idx, f"invalid JSON: {exc}")
            if not isinstance(obj, dict):
                raise DataError(idx, "record must be a JSON object")
            question = obj.get("question")
            answers = obj.get("answers")
            if not question or not isinstance(question, str):
                raise DataError(idx, "missing or empty 'question'")
            if not answers or not isinstance(answers, list) or not all(
                isinstance(a, str) and a for a in answers
            ):
                raise DataError(idx, "'answers' must be a non-empty list of strings")
            starts = obj.get("start_entities", [])
            if not isinstance(starts, list) or not all(isinstance(s, str) for s in starts):
                raise DataError(idx, "'start_entities' must be a list of strings")
            records.append(
                QARecord(
                    id=str(obj.get("id", idx)),
                    question=question,
                    gold_answers=tuple(answers),
                    start_entities=tuple(starts),
                )
            )
    if sample_n is not None and sample_n < len(records):
        picked = sorted(random.Random(seed).sample(range(len(records)), sample_n))
        records = [records[i] for i in picked]
    return records


def exact_match(prediction: str, golds) -> bool:
    """Hit@1 scoring: normalized equality or contiguous-token containment."""
    golds = list(golds)
    if not golds:
        raise ValueError("golds must be non-empty")
    pred = normalize_answer(prediction)
    pred_tokens = pred.split()
    for gold in golds:
        norm = normalize_answer(gold)
        if not norm:
            continue
        if norm == pred:
            return True
        gold_tokens = norm.split()
        width = len(gold_tokens)
        for i in range(len(pred_tokens) - width + 1):
            if pred_tokens[i : i + width] == gold_tokens:
                return True
    return False


def run_record(engine: Engine, question: str, start_entities=()):
    """Run one question for ``fasttog run`` and for each ``evaluate`` record.

    Returns ``(verdict, trace, None)``, or ``(None, partial_trace, error)``
    when the run raises a FastToGError; that trace ends in ``aborted``.
    """
    try:
        verdict, trace = engine.run(question, list(start_entities) or None)
    except FastToGError as exc:
        return None, exc.partial_trace, exc
    return verdict, trace, None


def evaluate(
    records,
    omega: KnowledgeGraph,
    config: EngineConfig,
    gateway_factory,
    g2t_backend_factory=None,
    parallelism: int = 1,
    trace_dir: str | Path | None = None,
) -> EvalReport:
    """Run every record through an engine and aggregate the scores.

    ``gateway_factory`` is invoked once per record so scripted mocks start
    fresh for every run; engines share the immutable graph. Per-record
    failures are recorded as incorrect items, not batch failures. Results are
    assembled in record order regardless of worker scheduling. With
    ``trace_dir``, every record's trace is written, the partial trace of a
    record that raised included (it ends in an ``aborted`` event); two records
    whose ids name the same trace file raise DataError before any record runs.
    """
    check_count("parallelism", parallelism)
    records = list(records)
    if trace_dir is not None:
        first: dict[str, int] = {}
        for i, r in enumerate(records):
            name = _trace_name(r.id)
            j = first.setdefault(name, i)
            if j != i:
                raise DataError(
                    i, f"id {r.id!r} and record {j}'s id {records[j].id!r} both name {name}"
                )
        Path(trace_dir).mkdir(parents=True, exist_ok=True)

    def run_one(record: QARecord) -> dict:
        gateway = gateway_factory(record)
        backend = g2t_backend_factory(record) if g2t_backend_factory else None
        engine = Engine(omega, gateway, config, g2t_backend=backend)
        verdict, trace, error = run_record(engine, record.question, record.start_entities)
        if trace_dir is not None:
            path = Path(trace_dir) / _trace_name(record.id)
            path.write_text(trace.to_jsonl(), encoding="utf-8")
        answered = verdict is not None and verdict.kind == "answer" and verdict.text
        item = {
            "id": record.id,
            "correct": bool(answered) and exact_match(verdict.text, record.gold_answers),
            "depth": trace.depth_reached,
            "calls": sum(trace.ledger.values()),
            "degraded": trace.degraded,
        }
        if error is not None:  # a record that raised reports no depth
            item.update(depth=0, degraded=False, error=str(error))
        return item

    if parallelism <= 1:
        items = [run_one(r) for r in records]
    else:
        from concurrent.futures import ThreadPoolExecutor  # loaded only for workers

        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            items = list(pool.map(run_one, records))

    n = len(items)
    correct = sum(1 for it in items if it["correct"])
    degraded = sum(1 for it in items if it.get("degraded"))
    non_degraded_depths = [
        it["depth"] for it in items if not it.get("degraded") and "error" not in it
    ]
    # a record that raised has no depth, but it did not degrade either
    all_degraded = degraded > 0 and not non_degraded_depths
    if non_degraded_depths:
        avg_depth = sum(non_degraded_depths) / len(non_degraded_depths)
    elif all_degraded:
        avg_depth = float(config.max_depth)
    else:  # no record has a depth to average
        avg_depth = 0.0
    return EvalReport(
        n=n,
        hit_at_1=correct / n if n else 0.0,
        avg_depth=avg_depth,
        avg_depth_all_degraded=all_degraded,
        avg_calls=sum(it["calls"] for it in items) / n if n else 0.0,
        degraded_fraction=degraded / n if n else 0.0,
        per_item=items,
    )


def _trace_name(record_id: str) -> str:
    """The trace file name of a record: its id with unsafe characters as ``_``."""
    safe_id = "".join(c if c.isalnum() or c in "-_." else "_" for c in record_id)
    return f"{safe_id}.trace.jsonl"
