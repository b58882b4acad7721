"""Offline benchmark of fasttog: seeded graphs, a stand-in model, three workloads.

Usage (from the repository root)::

    python3 bench/run.py --workload walk-80k-louvain --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 12

One run generates (or reuses) the workload's inputs for the seed in a child
process, ingests the graph several times for ``setup_s``, then asks questions
in a closed loop, in whole cycles of question kinds, and stops at the cycle
boundary nearest to ``--seconds`` (or after the workload's ``max_cycles``).
It drives the package only through ``KnowledgeGraph.ingest``,
``Engine.run`` and ``fasttog.cli.main``; a stand-in model answers every call
(see ``oracle.py``). ``--trace 1`` instead runs the questions once untraced
and once with spans around every layer, and reports per-layer numbers.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is non-zero when a correctness
check fails or the package cannot be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DATA = BENCH / ".data"
KEEP_DATASETS = 3  # cached inputs kept per workload
# set-up ingests of one run: at least SETUP_MIN_RUNS, and more until
# SETUP_MIN_S have passed or SETUP_MAX_RUNS are done
SETUP_MIN_RUNS = 2
SETUP_MIN_S = 6.0
SETUP_MAX_RUNS = 100

sys.path.insert(0, str(BENCH))

from metrics import median, tail  # noqa: E402
from oracle import QID_RE, Meter, Oracle, OracleGateway, modelled_sleep_s  # noqa: E402
from tracing import Hook, Hooks, Recorder  # noqa: E402
from workloads import MAX_COMMUNITY_SIZE, RETRIEVAL_CALL_BOUND, WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "question_s.tail": "s",
    "questions_per_s": "1/s",
    "calls_per_question": "count",
    "prompt_kchars_per_question": "kchars",
    "hit_at_1": "ratio",
    "peak_rss_mb": "MB",
}
# printed for reading, not gated. Failures are reported as ``failed`` /
# ``attempted``. The median of walk-80k-louvain's depth-1 questions (about
# 0.35 s each) follows which of a shared host's fast and slow phases each
# question ran in, and its spread over seeds reached the largest bound.
INFO_ONLY = {"question_s.p50": "s", "failed_fraction": "ratio"}

def qid_of_question(question: str) -> str:
    m = QID_RE.search(question)
    return m.group(1) if m else "?"


# -- inputs -------------------------------------------------------------------


def ensure_data(workload: str, seed: int) -> Path:
    """Generate the workload's inputs once per seed, in a child process.

    The cache key includes a hash of the generator and the workload table,
    so editing either never reuses inputs made by the old version.
    """
    digest = hashlib.sha1()
    for source in ("gen.py", "workloads.py"):
        digest.update((BENCH / source).read_bytes())
    out = DATA / f"{workload}-{seed}-{digest.hexdigest()[:10]}"
    if (out / "done").exists():
        return out
    DATA.mkdir(parents=True, exist_ok=True)
    cached = sorted(DATA.glob(f"{workload}-*/done"), key=lambda p: p.stat().st_mtime)
    for stale in cached[: max(0, len(cached) - KEEP_DATASETS + 1)]:
        shutil.rmtree(stale.parent, ignore_errors=True)
    partial = DATA / f".{out.name}.partial"
    shutil.rmtree(partial, ignore_errors=True)
    shutil.rmtree(out, ignore_errors=True)
    subprocess.run(
        [sys.executable, str(BENCH / "gen.py"), "--workload", workload, "--seed", str(seed),
         "--out", str(partial)],
        check=True,
        timeout=600,
    )
    partial.rename(out)
    (out / "done").write_text("", encoding="utf-8")
    return out


def load_questions(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# -- measurement boundary -----------------------------------------------------


@dataclass
class Answer:
    qid: str
    seconds: float
    kind: str | None = None
    text: str | None = None
    degraded: bool = False
    depth: int = 0
    error: str | None = None


class EngineProbe:
    """Times every ``Engine.run`` call and keeps its verdict, in any thread."""

    def __init__(self, engine_cls):
        self.answers: list[Answer] = []
        self._lock = threading.Lock()
        self._cls = engine_cls
        self._raw = engine_cls.__dict__["run"]
        raw = self._raw

        def run(engine, question, start_entities=None):
            started = time.perf_counter()
            try:
                verdict, trace = raw(engine, question, start_entities)
            except Exception as exc:  # a failed question is counted, not fatal
                self._add(Answer(qid_of_question(question), time.perf_counter() - started,
                                 error=f"{type(exc).__name__}: {exc}"))
                raise
            self._add(Answer(qid_of_question(question), time.perf_counter() - started,
                             verdict.kind, verdict.text, trace.degraded, trace.depth_reached))
            return verdict, trace

        engine_cls.run = run

    def _add(self, answer: Answer) -> None:
        with self._lock:
            self.answers.append(answer)

    def take(self) -> list[Answer]:
        with self._lock:
            out, self.answers = self.answers, []
        return out

    def close(self) -> None:
        self._cls.run = self._raw


def ingest_repeatedly(tsv: Path, min_runs: int, min_s: float):
    """Ingest at least ``min_runs`` times and for ``min_s`` seconds in all.

    Returns the last graph and every duration. Spreading small ingests over
    several seconds keeps one burst of machine noise from setting the
    median.
    """
    from fasttog import KnowledgeGraph

    times = []
    kg = None
    while len(times) < min_runs or (sum(times) < min_s and len(times) < SETUP_MAX_RUNS):
        kg = None
        gc.collect()
        started = time.perf_counter()
        kg = KnowledgeGraph.ingest(tsv)
        times.append(time.perf_counter() - started)
    # move the graph to the oldest collector generation now, not during the
    # first questions
    gc.collect()
    return kg, times


@dataclass
class Pass:
    """One measured pass: answers, per-question call counts, wall time."""

    answers: list[Answer] = field(default_factory=list)
    calls: list[dict] = field(default_factory=list)  # one meter entry per question run
    errors: list[str] = field(default_factory=list)
    wall_s: float = 0.0
    asked: int = 0
    batches: int = 0


def another_cycle(elapsed: float, cycles: int, seconds: float) -> bool:
    """Whether the run ends nearer to ``seconds`` after one more cycle."""
    return cycles == 0 or elapsed + elapsed / cycles / 2 < seconds


def engine_pass(
    engine, questions, cycle, seconds, probe, meter, limit=None, max_cycles=None
) -> Pass:
    """Ask questions one at a time, in whole cycles, for about ``seconds``
    and at most ``max_cycles`` cycles.

    The questions are asked again from the first once all have been asked;
    with ``limit`` the pass ends after that many.
    """
    started = time.perf_counter()
    asked = 0
    for q in itertools.cycle(questions):
        if asked == limit or (asked % cycle == 0 and (
            asked // cycle == max_cycles
            or not another_cycle(time.perf_counter() - started, asked // cycle, seconds)
        )):
            break
        asked += 1
        with contextlib.suppress(Exception):  # recorded by the probe
            engine.run(q["question"], q["start_entities"])
    wall = time.perf_counter() - started
    drained = meter.drain()
    return Pass(probe.take(), list(drained["questions"].values()), drained["errors"], wall, asked)


class Stub:
    """The loopback chat-completion stub, in its own process."""

    def __init__(self, oracle_path: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "stub.py"), "--oracle", str(oracle_path)],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"stub did not start: {line!r}")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}/"

    def drain(self) -> dict:
        import requests

        resp = requests.get(self.url + "stats", timeout=30)
        resp.raise_for_status()
        return resp.json()

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def cli_pass(argv, n_questions, stub: Stub, seconds, probe, batches=None) -> Pass:
    """Run ``fasttog eval`` over the question file, ``batches`` times or for
    about ``seconds``."""
    from fasttog.cli import main as cli_main

    out = Pass()
    started = time.perf_counter()
    done = 0
    while (
        another_cycle(time.perf_counter() - started, done, seconds)
        if batches is None
        else done < batches
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv)
        if code != 0:
            out.errors.append(f"fasttog eval exited {code}")
        drained = stub.drain()
        out.calls.extend(drained["questions"].values())
        out.errors.extend(drained["errors"])
        out.asked += n_questions
        done += 1
    out.wall_s = time.perf_counter() - started
    out.batches = done
    out.answers = probe.take()
    return out


# -- checks and end-to-end metrics --------------------------------------------


def check(p: Pass, questions: dict[str, dict]) -> list[str]:
    """Correctness problems of one pass; an empty list means correct.

    A question that raised is counted in ``failed``, not here; every asked
    question must have come back one way or the other.
    """
    problems = list(p.errors)
    if len(p.answers) != p.asked:
        problems.append(f"{p.asked} questions asked but {len(p.answers)} runs seen")
    for a in p.answers:
        if a.error is not None:
            continue  # counted in failed
        q = questions[a.qid]
        want = q["wrong"] if a.degraded else q["answers"][0]
        if a.kind != "answer" or a.text != want:
            problems.append(f"{a.qid}: answered {a.text!r}, expected {want!r}")
    for c in p.calls:
        retrieval = c.get("pruning", 0) + c.get("reasoning", 0)
        if retrieval > RETRIEVAL_CALL_BOUND:
            problems.append(f"{retrieval} retrieval calls > bound {RETRIEVAL_CALL_BOUND}")
        if c.get("baseline", 0) > 1:
            problems.append(f"{c['baseline']} degrade calls > 1")
    degraded = sum(1 for a in p.answers if a.degraded)
    degrade_calls = sum(c.get("baseline", 0) for c in p.calls)
    if degraded != degrade_calls:
        problems.append(f"{degraded} degraded runs but {degrade_calls} degrade calls")
    completed = sum(1 for a in p.answers if a.error is None)
    if len(p.calls) < completed:
        problems.append(f"{completed} completed runs but calls for {len(p.calls)}")
    return problems


def end_to_end(p: Pass, questions, setup_times) -> tuple[dict, dict]:
    from fasttog import exact_match

    n = len(p.answers)
    times = [a.seconds for a in p.answers]
    tail_s, tail_pct, _ = tail(times)
    failed = sum(1 for a in p.answers if a.error is not None)
    hits = sum(
        1
        for a in p.answers
        if a.kind == "answer" and a.text and exact_match(a.text, questions[a.qid]["answers"])
    )
    calls = sum(c.get(t, 0) for c in p.calls for t in ("pruning", "reasoning", "baseline", "g2t"))
    values = {
        "setup_s": median(setup_times),
        "question_s.p50": median(times),
        "question_s.tail": tail_s,
        "questions_per_s": (n - failed) / p.wall_s,
        "calls_per_question": calls / n,
        "prompt_kchars_per_question": sum(c.get("prompt_chars", 0) for c in p.calls) / 1000.0 / n,
        "hit_at_1": hits / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_fraction": failed / n,
    }
    kinds: dict[str, list[Answer]] = {}
    for a in p.answers:
        kinds.setdefault(questions[a.qid]["kind"], []).append(a)
    info = {
        "tail_percentile": tail_pct,
        "questions": n,
        "setup_runs": [round(t, 4) for t in setup_times],
        "by_kind": {
            kind: {
                "questions": len(answers),
                "seconds_p50": round(median([a.seconds for a in answers]), 4),
                "depths": sorted({a.depth for a in answers}),
                "degraded": sum(a.degraded for a in answers),
            }
            for kind, answers in sorted(kinds.items())
        },
    }
    return values, info


# -- traced run ---------------------------------------------------------------


class LayerProbe:
    """Hooks on every layer's public functions and the per-call notes they keep."""

    def __init__(self, gateway_target: str, stand_in: bool):
        from fasttog.community import validate_partition
        from fasttog.errors import InvalidPartitionError

        self.recorder = Recorder()
        # the gateway hook wraps the benchmark's own in-process stand-in,
        # so its times are not the package's
        self.stand_in = stand_in
        self.gateway_overhead_ms: list[float] = []
        self.partition_problems: list[str] = []
        lock = threading.Lock()

        def on_detect(args, kwargs, p, _s):
            g = args[0]
            try:
                validate_partition(p, g.nodes)
                if p.max_size() > MAX_COMMUNITY_SIZE:
                    raise InvalidPartitionError(f"community of {p.max_size()} members")
            except InvalidPartitionError as exc:
                with lock:
                    self.partition_problems.append(str(exc))
            return {"input_nodes": len(g.nodes), "communities": len(p)}

        def on_gateway(args, kwargs, resp, seconds):
            req = args[1]
            chars = len(req.prompt.system_preamble) + len(req.prompt.body)
            modelled = 0.0 if stand_in else modelled_sleep_s(chars)
            with lock:
                self.gateway_overhead_ms.append((seconds - modelled) * 1000.0)
            return {req.tag: 1, "retries": resp.attempt, "reply_chars": len(resp.text)}

        def on_engine(args, kwargs, result, _s):
            trace = result[1]
            stopped = sum(1 for e in trace.events if e["event"] == "chain_stopped")
            return {"depth": trace.depth_reached, "degraded": int(trace.degraded),
                    "chains_stopped": stopped}

        def prompt_chars(args, kwargs, bundle, _s):
            return {"chars": len(bundle.system_preamble) + len(bundle.body)}

        self.hooks = [
            Hook("fasttog.cli:KnowledgeGraph.ingest", "kg.ingest"),
            Hook("fasttog.engine:extract_subgraph", "kg.extract",
                 lambda a, k, g, s: {"nodes": len(g.nodes), "triples": len(g.triples)}),
            Hook("fasttog.engine:detect", "detect", on_detect),
            Hook("fasttog.community:Community.from_members", "community.from_members"),
            Hook("fasttog.pruning:modularity_community", "community.modularity"),
            Hook("fasttog.engine:candidate_communities", "pruning.candidates",
                 lambda a, k, r, s: {"count": len(r)}),
            Hook("fasttog.engine:coarse_prune", "pruning.coarse",
                 lambda a, k, r, s: {"offered": len(a[0]), "kept": len(r)}),
            Hook("fasttog.engine:fine_prune", "pruning.fine",
                 lambda a, k, r, s: {"none": int(r.none_selected)}),
            Hook("fasttog.engine:triple2text", "verbalize.t2t"),
            Hook("fasttog.pruning:build_pruning_prompt", "verbalize.prompt", prompt_chars),
            Hook("fasttog.engine:build_reasoning_prompt", "verbalize.prompt", prompt_chars),
            Hook("fasttog.verbalize:load_template", "verbalize.template_load"),
            Hook("fasttog.gateway:load_template", "verbalize.template_load"),
            Hook("fasttog.engine:load_template", "verbalize.template_load"),
            Hook(gateway_target, "gateway", on_gateway),
            Hook("fasttog.engine:Engine.run", "engine", on_engine,
                 lambda a, k: qid_of_question(a[1])),
            Hook("fasttog.cli:evaluate", "evaluate"),
            Hook("fasttog.cli:main", "cli"),
        ]

    def metrics(self, absent, parallelism, untraced_p50, traced_p50) -> tuple[dict, dict]:
        """Per-layer metrics, per question where a count or a time is summed.

        A layer with a hook whose target is gone is reported absent and its
        metrics are left out rather than reported as zero.
        """
        s = self.recorder.summary({"kg.extract", "detect", "gateway"})
        notes = self.recorder.notes()
        nq = max(s["engine"].calls, 1)

        def per_q(value):
            return value / nq

        def ratio(a, b):
            return a / b if b else 0.0

        def ms_p50(name):
            return median(s[name].durations) * 1000.0 if name in s else 0.0

        kg = s["kg.extract"]
        det = s["detect"]
        fm = s["community.from_members"]
        gw = s["gateway"]
        gw_notes = notes["gateway"]
        prompts = s["verbalize.prompt"]
        values = {
            "kg.extract.calls": per_q(kg.calls),
            "kg.extract.self_s": per_q(kg.self_s),
            "kg.extract.ms_p50": ms_p50("kg.extract"),
            "kg.subgraph.nodes_mean": ratio(notes["kg.extract"]["nodes"], kg.calls),
            "kg.subgraph.triples_mean": ratio(notes["kg.extract"]["triples"], kg.calls),
            "kg.extract.us_per_node": ratio(kg.self_s * 1e6, notes["kg.extract"]["nodes"]),
            "detect.calls": per_q(det.calls),
            "detect.self_s": per_q(det.self_s),
            "detect.ms_p50": ms_p50("detect"),
            "detect.input_nodes_mean": ratio(notes["detect"]["input_nodes"], det.calls),
            "detect.useful_ratio": ratio(notes["detect"]["communities"], fm.callers["detect"]),
            "community.from_members.calls": per_q(fm.calls),
            "community.from_members.self_s": per_q(fm.self_s),
            "community.modularity.calls": per_q(s["community.modularity"].calls),
            "pruning.candidates.self_s": per_q(s["pruning.candidates"].self_s),
            "pruning.candidates.count_mean": ratio(
                notes["pruning.candidates"]["count"], s["pruning.candidates"].calls),
            "pruning.coarse.kept_ratio": ratio(
                notes["pruning.coarse"]["kept"], notes["pruning.coarse"]["offered"]),
            "pruning.fine.self_s": per_q(s["pruning.fine"].self_s),
            "pruning.fine.none_ratio": ratio(notes["pruning.fine"]["none"], s["pruning.fine"].calls),
            "verbalize.t2t.calls": per_q(s["verbalize.t2t"].calls),
            "verbalize.t2t.self_s": per_q(s["verbalize.t2t"].self_s),
            "verbalize.prompt.calls": per_q(prompts.calls),
            "verbalize.prompt.self_s": per_q(prompts.self_s),
            "verbalize.template_loads": per_q(s["verbalize.template_load"].calls),
            "verbalize.prompt.chars_mean": ratio(notes["verbalize.prompt"]["chars"], prompts.calls),
            "gateway.calls.pruning": per_q(gw_notes["pruning"]),
            "gateway.calls.reasoning": per_q(gw_notes["reasoning"]),
            "gateway.calls.baseline": per_q(gw_notes["baseline"]),
            "gateway.wait_s": per_q(gw.self_s),
            "gateway.ms_p50": ms_p50("gateway"),
            "gateway.ms_tail": tail(gw.durations)[0] * 1000.0 if gw.durations else 0.0,
            "gateway.overhead_ms_p50": median(self.gateway_overhead_ms),
            "gateway.retries": per_q(gw_notes["retries"]),
            "gateway.reply_chars_mean": ratio(gw_notes["reply_chars"], gw.calls),
            "engine.self_s": per_q(s["engine"].self_s),
            "engine.depth_mean": per_q(notes["engine"]["depth"]),
            "engine.degraded_fraction": per_q(notes["engine"]["degraded"]),
            "engine.chains_stopped_mean": per_q(notes["engine"]["chains_stopped"]),
            "evaluate.wall_s": ratio(s["evaluate"].total_s, s["evaluate"].calls),
            "evaluate.busy_fraction": ratio(
                s["engine"].total_s, s["evaluate"].total_s * parallelism),
            "cli.eval.self_s": ratio(s["cli"].self_s, s["cli"].calls),
            "trace.overhead_frac": ratio(traced_p50, untraced_p50) - 1.0,
        }
        gone = {h.name.split(".")[0] for h in self.hooks if h.target in absent}
        values = {k: v for k, v in values.items() if k.split(".")[0] not in gone}
        # self time of each layer inside Engine.run, for the layer-share table
        inside = {name: t.question_self_s for name, t in s.items() if t.question_self_s > 0}
        total = sum(inside.values()) or 1.0
        label = {"gateway": "gateway (stand-in)"} if self.stand_in else {}
        shares = {
            label.get(name, name): sec / total
            for name, sec in sorted(inside.items(), key=lambda kv: -kv[1])
        }
        info = {"absent": absent, "self_share": shares}
        if self.stand_in:
            info["note"] = "gateway.* times are the in-process stand-in's own time, not fasttog's"
        return values, info


PER_LAYER_UNITS = {
    "calls": "count", "self_s": "s", "ms_p50": "ms", "nodes_mean": "count",
    "triples_mean": "count", "us_per_node": "us", "input_nodes_mean": "count",
    "useful_ratio": "ratio", "count_mean": "count", "kept_ratio": "ratio", "none_ratio": "ratio",
    "template_loads": "count", "chars_mean": "chars", "pruning": "count", "reasoning": "count",
    "baseline": "count", "wait_s": "s", "ms_tail": "ms", "overhead_ms_p50": "ms",
    "retries": "count", "reply_chars_mean": "chars", "depth_mean": "count",
    "degraded_fraction": "ratio", "chains_stopped_mean": "count", "wall_s": "s",
    "busy_fraction": "ratio", "overhead_frac": "ratio",
}


def unit_of(name: str) -> str:
    return END_TO_END.get(name) or INFO_ONLY.get(name) or PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


# -- one workload -------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> tuple[dict, list[str]]:
    from fasttog import Engine

    w = WORKLOADS[name]
    data = ensure_data(name, seed)
    questions = load_questions(data / "questions.jsonl")
    by_id = {q["id"]: q for q in questions}
    cycle = len(w.kinds)
    probe = EngineProbe(Engine)
    stub = None
    try:
        if traced:  # set-up time is not reported
            kg, setup_times = ingest_repeatedly(data / "graph.tsv", 1, 0.0)
        else:
            kg, setup_times = ingest_repeatedly(data / "graph.tsv", SETUP_MIN_RUNS, SETUP_MIN_S)
        if w.entry == "engine":
            with open(data / "oracle.json", encoding="utf-8") as fh:
                oracle = Oracle(json.load(fh))
            meter = Meter()
            engine = Engine(kg, OracleGateway(oracle, meter), w.engine_config())
            gateway_target = "oracle:OracleGateway.generate"

            def measured(secs, subset=None):
                if subset is None:
                    return engine_pass(
                        engine, questions, cycle, secs, probe, meter, max_cycles=w.max_cycles
                    )
                return engine_pass(engine, subset, cycle, secs, probe, meter, len(subset))
        else:
            del kg
            os.environ["NO_PROXY"] = "127.0.0.1,localhost"
            stub = Stub(data / "oracle.json")
            cfg = w.engine_config()
            argv = [
                "eval", "--graph", str(data / "graph.tsv"), "--data", str(data / "questions.jsonl"),
                "--endpoint", stub.url, "--model", "oracle",
                "--parallelism", str(w.parallelism), "--width", str(cfg.width),
                "--max-depth", str(cfg.max_depth), "--max-community-size", str(cfg.max_community_size),
                "--r-max", str(cfg.r_max), "--detector", cfg.detector,
            ]
            gateway_target = "fasttog.gateway:ChatEndpoint.generate"

            def measured(secs, subset=None):
                return cli_pass(argv, len(questions), stub, secs, probe, batches=subset)

        if not traced:
            p = measured(seconds)
            problems = check(p, by_id)
            values, info = end_to_end(p, by_id, setup_times)
            return _result(values, info, p, problems, END_TO_END), problems

        # untraced first, then the same questions with every layer hooked
        plain = measured(seconds / 2)
        layers = LayerProbe(gateway_target, stand_in=w.entry == "engine")
        if w.entry == "engine":
            asked = {a.qid for a in plain.answers}
            subset = [q for q in questions if q["id"] in asked]
        else:
            subset = plain.batches
        with Hooks(layers.recorder).install(layers.hooks) as hooks:
            p = measured(math.inf, subset)
        problems = check(plain, by_id) + check(p, by_id) + layers.partition_problems
        values, info = layers.metrics(
            hooks.absent, w.parallelism,
            median([a.seconds for a in plain.answers]), median([a.seconds for a in p.answers]),
        )
        per_layer = {k: unit_of(k) for k in values}
        return _result(values, info, p, problems, per_layer), problems
    finally:
        probe.close()
        if stub is not None:
            stub.close()


def _result(values, info, p: Pass, problems, reported) -> dict:
    return {
        "values": values,
        "info": info,
        "attempted": len(p.answers),
        "failed": sum(1 for a in p.answers if a.error is not None),
        "problems": problems,
        "reported": reported,
    }


def print_report(name: str, result: dict) -> dict:
    values = result["values"]
    print(f"== {name}")
    for key, value in values.items():
        print(f"  {key:34s} {value:14.6g} {unit_of(key)}")
    for key, value in result["info"].items():
        if key == "self_share":
            print("  self-time share of traced spans:")
            for layer, share in value.items():
                print(f"    {layer:32s} {share:8.2%}")
        else:
            print(f"  {key}: {value}")
    for problem in result["problems"][:20]:
        print(f"  CHECK FAILED: {problem}")
    return {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            k: {"value": values[k], "unit": unit} for k, unit in result["reported"].items()
        },
    }


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    ok = True
    summary = {}
    for name in WORKLOADS:
        for traced in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(traced)],
                stdout=subprocess.PIPE, text=True, timeout=900,
            )
            lines = proc.stdout.splitlines() or ["{}"]
            print("\n".join(lines[:-1]))
            try:
                result = json.loads(lines[-1])
            except ValueError:
                result = {"correct": False}
            ok = ok and proc.returncode == 0 and result.get("correct", False)
            summary[f"{name}/trace{traced}"] = result
    print(json.dumps({"correct": ok, "runs": summary}))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import fasttog  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import fasttog from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result, problems = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    line = print_report(args.workload, result)
    print(json.dumps(line, sort_keys=True))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
