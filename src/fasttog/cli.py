"""Command line interface.

Subcommands: ``ingest`` (triple file to canonical dump), ``detect``
(partition a graph under a size bound), ``run`` (answer one question),
``eval`` (batch evaluation with a report), ``trace`` (trace JSONL to DOT).

Exit codes: 0 success, 1 usage error, 2 data error, 3 provider error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .detect import DETECTOR_KINDS, detect
from .engine import PRUNE_MODES, Engine, EngineConfig, check_trace_event, trace_to_dot
from .errors import DataError, FastToGError, GatewayError
from .evaluate import check_count, evaluate, load_dataset, run_record
from .community import partition_dump
from .gateway import BASELINE_MODES, ChatEndpoint, ScriptedGateway
from .kg import KnowledgeGraph, Subgraph
from .verbalize import MODES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fasttog",
        description="Community-by-community retrieval and reasoning over knowledge graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="parse a triple file and print the canonical dump")
    p_ingest.add_argument("triples", help="TSV triple file")
    p_ingest.add_argument("--out", help="write the dump here instead of stdout")

    p_detect = sub.add_parser("detect", help="partition a graph into bounded communities")
    p_detect.add_argument("--graph", required=True, help="TSV triple file")
    p_detect.add_argument("--detector", choices=DETECTOR_KINDS)
    p_detect.add_argument("--max-community-size", type=int)
    p_detect.add_argument("--seed", type=int)
    p_detect.add_argument("--out", help="write the partition dump here instead of stdout")
    p_detect.set_defaults(**asdict(EngineConfig()))  # it reads detector, max_community_size, seed

    p_run = sub.add_parser("run", help="answer a single question")
    p_run.add_argument("--graph", required=True)
    p_run.add_argument("--question", required=True)
    p_run.add_argument("--start-entity", action="append", default=[])
    p_run.add_argument("--out-dir", help="directory for trace JSONL and DOT files")
    _add_engine_args(p_run)

    p_eval = sub.add_parser("eval", help="run a JSONL dataset and report metrics")
    p_eval.add_argument("--graph", required=True)
    p_eval.add_argument("--data", required=True, help="JSONL dataset")
    p_eval.add_argument("--out", help="write the JSON report here")
    p_eval.add_argument("--trace-dir", help="write one trace file per record")
    p_eval.add_argument("--parallelism", type=int, default=1)
    p_eval.add_argument("--sample-n", type=int)
    _add_engine_args(p_eval)

    p_trace = sub.add_parser("trace", help="render a trace JSONL file as DOT")
    p_trace.add_argument("trace_file")
    p_trace.add_argument("--out", help="write the DOT here instead of stdout")

    return parser


def _add_engine_args(sp: argparse.ArgumentParser) -> None:
    """Engine flags, each read into the EngineConfig field its dest names."""
    sp.add_argument("--width", type=int)
    sp.add_argument("--max-depth", type=int)
    sp.add_argument("--max-community-size", type=int)
    sp.add_argument("--r-max", type=int)
    sp.add_argument("--rho", type=float)
    sp.add_argument("--mode", choices=MODES)
    sp.add_argument("--detector", choices=DETECTOR_KINDS)
    sp.add_argument("--coarse-top-k", type=int)
    sp.add_argument("--prune-mode", choices=PRUNE_MODES)
    sp.add_argument("--degrade", dest="degrade_mode", choices=BASELINE_MODES)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--templates", dest="templates_dir", help="directory of prompt template overrides")
    sp.set_defaults(**asdict(EngineConfig()))
    sp.add_argument("--mock-script", help="scripted gateway reply file")
    sp.add_argument("--g2t-script", help="scripted rewrite-backend reply file")
    sp.add_argument("--endpoint", help="chat-completion endpoint URL")
    sp.add_argument("--model", help="model name for the endpoint")
    sp.add_argument("--api-key", help="endpoint API key")


def _engine_config(args) -> EngineConfig:
    return EngineConfig(**{f.name: getattr(args, f.name) for f in fields(EngineConfig)})


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_ingest(args) -> int:
    graph = KnowledgeGraph.ingest(args.triples)
    _write_or_print(graph.dump(), args.out)
    return 0


def _cmd_detect(args) -> int:
    graph = KnowledgeGraph.ingest(args.graph)
    g = Subgraph.from_full_graph(graph)
    partition = detect(g, args.detector, args.max_community_size, seed=args.seed)
    _write_or_print(partition_dump(partition), args.out)
    return 0


def _backends(args):
    """Per-record factories of the retrieval gateway and of the g2t backend: a
    fresh ScriptedGateway for each record, or one ChatEndpoint shared by all."""
    g2t = args.mode == "g2t"
    g2t_script = args.g2t_script if g2t else None
    chat = None
    if not args.mock_script or (g2t and args.endpoint and not g2t_script):
        chat = ChatEndpoint(url=args.endpoint, api_key=args.api_key, model=args.model)

    def factory(script, shared):
        if script:
            return lambda _record=None: ScriptedGateway.from_file(script)
        return lambda _record=None: shared

    return factory(args.mock_script, chat), factory(g2t_script, chat if g2t else None)


def _cmd_run(args) -> int:
    config = _engine_config(args)
    graph = KnowledgeGraph.ingest(args.graph)
    make_gateway, make_g2t_backend = _backends(args)
    engine = Engine(graph, make_gateway(), config, g2t_backend=make_g2t_backend())
    verdict, trace, error = run_record(engine, args.question, args.start_entity)
    if error is None:
        print(f"answer: {verdict.text if verdict.kind == 'answer' else 'Unknown'}")
        print(f"depth_reached: {trace.depth_reached}  degraded: {trace.degraded}")
        print(f"calls: {json.dumps(trace.ledger, sort_keys=True)}")
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        trace_path = out_dir / "run.trace.jsonl"
        dot_path = out_dir / "run.dot"
        trace_path.write_text(trace.to_jsonl(), encoding="utf-8")
        dot_path.write_text(trace_to_dot(trace.events), encoding="utf-8")
        print(f"trace: {trace_path}")
        print(f"dot: {dot_path}")
    if error is not None:
        raise error
    return 0


def _cmd_eval(args) -> int:
    config = _engine_config(args)
    graph = KnowledgeGraph.ingest(args.graph)
    records = load_dataset(args.data, sample_n=args.sample_n, seed=args.seed)
    # before an endpoint is built, which fails when none is configured
    check_count("parallelism", args.parallelism)
    gateway_factory, g2t_backend_factory = _backends(args)
    report = evaluate(
        records,
        graph,
        config,
        gateway_factory,
        g2t_backend_factory=g2t_backend_factory,
        parallelism=args.parallelism,
        trace_dir=args.trace_dir,
    )
    print(report.to_table())
    if args.out:
        Path(args.out).write_text(report.to_json(), encoding="utf-8")
        print(f"report: {args.out}")
    return 0


def _cmd_trace(args) -> int:
    events = []
    with open(args.trace_file, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                event = json.loads(line)
                check_trace_event(event)
            except ValueError as exc:  # JSONDecodeError is one too
                raise DataError(line_no, f"invalid trace line: {exc}", kind="line")
            events.append(event)
    _write_or_print(trace_to_dot(events), args.out)
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "detect": _cmd_detect,
    "run": _cmd_run,
    "eval": _cmd_eval,
    "trace": _cmd_trace,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; our contract reserves 2 for data
        return 0 if exc.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args)
    except GatewayError as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return 3
    except (FastToGError, OSError, ValueError) as exc:
        # typed data errors, unreadable paths, and bad values argparse let through
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
