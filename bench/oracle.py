"""Reply policy of the stand-in model, shared by the in-process gateway and
the loopback chat stub.

The policy reads only the prompt text, so both stand-ins behave alike:

* pruning: pick the option or options whose entities lie fewest hops from
  the question's target (ties go to the earlier letter); a one-option
  confirmation therefore returns the letter it was given;
* reasoning: ``Answer: <target>`` once the target's label appears in the
  prompt, else ``Unknown``;
* baseline: the question's planted wrong answer.

Each reply costs O(prompt length): one regex pass over entity labels and
lookups in the generator's precomputed distance table.
"""

from __future__ import annotations

import re
import threading
from collections import defaultdict
from dataclasses import dataclass, field

# first lines of the package's prompt templates, which name the call kind
_TAG_BY_PREAMBLE = {
    "You rank groups of linked facts": "pruning",
    "You answer questions from chains of linked facts": "reasoning",
    "You answer questions directly": "baseline",
    "You answer questions carefully": "baseline",
}
QID_RE = re.compile(r"\[(q\d+)\]")  # question ids are embedded in the question text
_LABEL_RE = re.compile(r"\bSynthetic Entity \d{6}\b")
_OPTION_RE = re.compile(r"^([A-Z])\. (.*)$", re.MULTILINE)
_K_RE = re.compile(r"Reply with exactly (\d+) letters")
FAR = 1 << 30
# latency the loopback stub models for one call
SLEEP_BASE_S = 0.005
SLEEP_PER_KCHAR_S = 0.001


def modelled_sleep_s(prompt_chars: int) -> float:
    return SLEEP_BASE_S + SLEEP_PER_KCHAR_S * prompt_chars / 1000.0


class OracleError(Exception):
    """A prompt the policy cannot attribute or answer."""


@dataclass
class Reply:
    qid: str
    tag: str
    text: str


def classify(system: str) -> str:
    for prefix, tag in _TAG_BY_PREAMBLE.items():
        if system.startswith(prefix):
            return tag
    raise OracleError(f"unrecognised system preamble: {system[:60]!r}")


def question_id(body: str) -> str:
    m = QID_RE.search(body)
    if m is None:
        raise OracleError("prompt carries no question id")
    return m.group(1)


def pruning_options(body: str) -> tuple[list[str], int]:
    """Option texts in letter order and the number of letters asked for."""
    _, sep, selection = body.partition("\nSelection:\n")
    if not sep:
        raise OracleError("pruning prompt has no selection block")
    options = [text for _, text in _OPTION_RE.findall(selection)]
    if not options:
        raise OracleError("pruning prompt has no lettered option")
    m = _K_RE.search(selection)
    return options, int(m.group(1)) if m else 1


@dataclass
class Oracle:
    """Answers prompts for every question of one generated question set."""

    questions: dict[str, dict] = field(default_factory=dict)

    def reply(self, system: str, body: str) -> Reply:
        tag = classify(system)
        qid = question_id(body)
        q = self.questions.get(qid)
        if q is None:
            raise OracleError(f"unknown question id {qid!r}")
        if tag == "pruning":
            options, k = pruning_options(body)
            dist = q["dist"]
            ranked = sorted(
                range(len(options)),
                key=lambda i: (
                    min((dist.get(lab, FAR) for lab in _LABEL_RE.findall(options[i])), default=FAR),
                    i,
                ),
            )
            text = ", ".join(chr(ord("A") + i) for i in ranked[:k])
        elif tag == "reasoning":
            target = q["target"]
            found = target in _LABEL_RE.findall(body.partition("\nContext:\n")[2])
            text = f"Answer: {target}" if found else "Unknown"
        else:
            text = f"Answer: {q['wrong']}"
        return Reply(qid, tag, text)


class Meter:
    """Per-question call counts, prompt and reply characters; thread-safe.

    This is the benchmark's own count of model calls, taken where the calls
    arrive, so it stays exact when one gateway serves many runs or threads.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._per_q: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._errors: list[str] = []

    def record(self, reply: Reply, prompt_chars: int) -> None:
        with self._lock:
            q = self._per_q[reply.qid]
            q[reply.tag] += 1
            q["prompt_chars"] += prompt_chars
            q["reply_chars"] += len(reply.text)

    def error(self, message: str) -> None:
        with self._lock:
            self._errors.append(message)

    def drain(self) -> dict:
        """Return ``{"questions": {qid: counts}, "errors": [...]}`` and reset."""
        with self._lock:
            out = {
                "questions": {qid: dict(c) for qid, c in self._per_q.items()},
                "errors": list(self._errors),
            }
            self._per_q.clear()
            self._errors.clear()
        return out


class OracleGateway:
    """In-process stand-in model with no latency, counting into a meter."""

    provider = "oracle"

    def __init__(self, oracle: Oracle, meter: Meter):
        from fasttog import CallLedger

        self.oracle = oracle
        self.meter = meter
        self.ledger = CallLedger()

    def generate(self, req):
        from fasttog import GenerationResponse

        self.ledger.increment(req.tag)
        prompt = req.prompt
        reply = self.oracle.reply(prompt.system_preamble, prompt.body)
        self.meter.record(reply, len(prompt.system_preamble) + len(prompt.body))
        return GenerationResponse(reply.text, 0, self.provider, 0)
