"""Uniform text-generation interface.

Provides the prompt renderer, the remote chat-completion adapter, a
deterministic scripted mock for tests and offline runs, reply parsers, a
thread-safe per-tag call ledger, and the inner-knowledge answer baselines
(direct, step-by-step, and self-consistency voting).

A gateway is any object with ``generate(req) -> GenerationResponse``. It
retries transient failures itself and counts nothing: each run counts its
own calls, once per logical call.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib.resources
import json
import os
import re
import string
import threading
import time
import urllib.parse
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    ProviderError,
    ReplyParseError,
    ScriptExhaustedError,
    TransportError,
)

TAGS = ("pruning", "reasoning", "baseline", "g2t")
PRUNING_TEMPERATURE = 0.4
REASONING_TEMPERATURE = 0.1
DEFAULT_MAX_OUTPUT_TOKENS = 1024
# both gateways retry a transient failure this many times; the endpoint sleeps
# BACKOFF_S before its first retry, doubling the wait before each next one
RETRY_BUDGET = 3
BACKOFF_S = 0.5
# what http.client refuses in a request target or a Host: controls and space
_UNSENDABLE = re.compile(r"[\x00-\x20\x7f]")
# what an API key may not hold: a C0, DEL or C1 control, or a character
# outside Latin-1, the header's encoding
_UNSENDABLE_KEY = re.compile(r"[^\x20-\x7e\xa0-\xff]")


@dataclass(frozen=True)
class PromptBundle:
    """A composed prompt plus the sampling temperature its call kind runs at."""

    system_preamble: str
    body: str
    temperature: float = REASONING_TEMPERATURE

    def __post_init__(self):
        if not (0.0 <= self.temperature <= 2.0):
            raise ValueError(f"temperature out of range: {self.temperature}")


@dataclass(frozen=True)
class GenerationRequest:
    prompt: PromptBundle
    tag: str

    def __post_init__(self):
        if self.tag not in TAGS:
            raise ValueError(f"unknown request tag: {self.tag!r}")
        if not self.prompt.body.strip():
            raise ValueError("empty prompt body")


@dataclass(frozen=True)
class GenerationResponse:
    text: str
    latency_ms: int
    provider: str
    attempt: int


@dataclass(frozen=True)
class ParsedVerdict:
    kind: str  # "answer" | "unknown"
    text: str | None = None


class CallLedger:
    """Thread-safe per-tag call counters."""

    def __init__(self):
        self._counts = {tag: 0 for tag in TAGS}
        self._lock = threading.Lock()

    def increment(self, tag: str) -> None:
        if tag not in TAGS:
            raise ValueError(f"unknown ledger tag: {tag!r}")
        with self._lock:
            self._counts[tag] += 1

    def counts(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)


# each template's format fields, which its caller passes to ``render``, and
# the temperature its call runs at
TEMPLATES = {
    "pruning": (("question", "premise", "selection"), PRUNING_TEMPERATURE),
    "reasoning": (("question", "context"), REASONING_TEMPERATURE),
    "extract": (("question",), PRUNING_TEMPERATURE),
    "baseline_io": (("question",), REASONING_TEMPERATURE),
    "baseline_cot": (("question",), REASONING_TEMPERATURE),
    "g2t": (("triples",), REASONING_TEMPERATURE),
}


@functools.lru_cache(maxsize=64)
def load_template(name: str, templates_dir: str | Path | None = None) -> tuple[str, str]:
    """Load a prompt template: first line is the system preamble, rest the body.

    Body templates carry named placeholders such as ``{question}``,
    ``{premise}``, ``{selection}``, ``{context}``. A directory override lets
    callers swap the wording without touching code. A body that names a
    field its caller does not pass, or that does not parse as a format
    string, raises ``ValueError`` naming the file.

    Each ``(name, templates_dir)`` is read from disk once per process; a
    missing or malformed template raises on every call.
    """
    if templates_dir is not None:
        path = Path(templates_dir) / f"{name}.txt"
    else:
        path = importlib.resources.files("fasttog").joinpath("templates", f"{name}.txt")
    preamble, _, body = path.read_text(encoding="utf-8").partition("\n")
    allowed, _ = TEMPLATES[name]
    try:
        fields = list(_format_fields(body))
    except ValueError as exc:
        raise ValueError(f"template {path}: {exc}") from None
    for field in fields:
        if field not in allowed:
            raise ValueError(
                f"template {path}: unknown field {{{field}}}; {name} takes "
                + ", ".join(f"{{{f}}}" for f in allowed)
            )
    return preamble.strip(), body.strip("\n")


def render(name: str, templates_dir: str | Path | None = None, **fields) -> PromptBundle:
    """The prompt of template ``name`` with ``fields`` filled in, at the
    temperature its call runs at."""
    _, temperature = TEMPLATES[name]
    preamble, body = load_template(name, templates_dir)
    return PromptBundle(preamble, body.format(**fields), temperature)


def _format_fields(text: str):
    """The field names of a format string, including those nested in a format spec."""
    for _, field, spec, _ in string.Formatter().parse(text):
        if field is not None:
            yield field
            yield from _format_fields(spec)


class ScriptedGateway:
    """Deterministic mock: replies consumed in order, one per call.

    A line equal to ``FAIL`` injects one transient failure; the retry then
    consumes the next line, without sleeping. As at the endpoint, a call's
    ``RETRY_BUDGET + 1``-th failure raises TransportError. Exhausting the
    script raises ScriptExhaustedError.
    """

    provider = "scripted"

    def __init__(self, replies):
        self._lines = list(replies)
        self._pos = 0
        self._lock = threading.Lock()

    def _next_line(self) -> str:
        with self._lock:
            if self._pos >= len(self._lines):
                raise ScriptExhaustedError(
                    f"script exhausted after {len(self._lines)} replies"
                )
            line = self._lines[self._pos]
            self._pos += 1
            return line

    def generate(self, req: GenerationRequest) -> GenerationResponse:
        attempt = 0
        while True:
            line = self._next_line()
            if line == "FAIL":
                attempt += 1
                if attempt > RETRY_BUDGET:
                    raise TransportError(f"retry budget exhausted after {attempt} failures")
                continue
            return GenerationResponse(line, 0, self.provider, attempt)


class ChatEndpoint:
    """Minimal chat-completion client: POST, retry transient failures, parse text.

    Endpoint, key, and model default to the FASTTOG_ENDPOINT, FASTTOG_API_KEY,
    and FASTTOG_MODEL environment variables. The URL must be http or https,
    with a port in range and no space or control character in its host, path
    or query, and the key, if any, must hold no control character and only
    Latin-1 characters, or construction raises ProviderError; no message
    quotes the key. A transient failure (a
    transport error, HTTP 429 or 5xx) is retried up to ``RETRY_BUDGET`` times,
    after sleeps of ``BACKOFF_S``, then twice that, and so on; a failure past
    the budget raises TransportError.
    Each thread posts over its own keep-alive connection, made on its first
    call and reopened when the server has closed it, so the callers' threads
    alone bound the calls in flight. Each request goes out in one write and
    its reply is read by a short reader of its own (:mod:`fasttog._http`);
    stdlib ``http.client`` only opens the connection, through the proxy that
    ``HTTP_PROXY``/``HTTPS_PROXY`` name unless ``NO_PROXY`` lists the host.
    A certificate that fails verification raises ProviderError at once.
    The HTTP, TLS and proxy modules are loaded by the first call, not by
    importing the package.
    """

    def __init__(
        self,
        url: str | None = None,
        api_key: str | None = None,
        model: str | None = None,
        timeout: float = 60.0,
    ):
        self.url = url or os.environ.get("FASTTOG_ENDPOINT")
        self.api_key = api_key or os.environ.get("FASTTOG_API_KEY")
        self.model = model or os.environ.get("FASTTOG_MODEL")
        if not self.url or not self.model:
            raise ProviderError("endpoint URL and model name must be configured")
        split = urllib.parse.urlsplit(self.url)
        try:
            port = split.port or (443 if split.scheme == "https" else 80)
        except ValueError:  # a port that is not a number in 0-65535
            port = None
        if split.scheme not in ("http", "https") or not split.hostname or port is None:
            raise ProviderError(f"endpoint URL must be http(s)://host[:port]/...: {self.url!r}")
        # such a request target or Host could never be sent, on any attempt
        if _UNSENDABLE.search(split.netloc + split.path + split.query):
            raise ProviderError(f"endpoint URL holds a space or control character: {self.url!r}")
        # the header lines every request sends after its Content-Length
        self._headers = b"Content-Type: application/json\r\n"
        if self.api_key:
            if _UNSENDABLE_KEY.search(self.api_key):
                raise ProviderError("API key holds a control character or one outside Latin-1")
            self._headers += b"Authorization: Bearer %s\r\n" % self.api_key.encode("latin-1")
        self._split, self._port = split, port
        self.timeout = timeout
        self._local = threading.local()

    def generate(self, req: GenerationRequest) -> GenerationResponse:
        payload = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": req.prompt.system_preamble},
                {"role": "user", "content": req.prompt.body},
            ],
            "temperature": req.prompt.temperature,
            "max_tokens": DEFAULT_MAX_OUTPUT_TOKENS,
        }
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        from ._http import TRANSIENT, UNTRUSTED  # loads the HTTP stack on the first call

        attempt = 0
        while True:
            started = time.monotonic()
            try:
                status, raw = self._post(body)
            except UNTRUSTED as exc:
                raise ProviderError(str(exc)) from exc
            except TRANSIENT as exc:
                failure = str(exc)
            else:
                if status < 400:
                    try:
                        text = json.loads(raw)["choices"][0]["message"]["content"]
                    except (KeyError, IndexError, TypeError, ValueError) as exc:
                        raise ProviderError(f"malformed provider response: {exc}")
                    if not isinstance(text, str):
                        raise ProviderError(
                            f"malformed provider response: content is {type(text).__name__}"
                        )
                    latency = int((time.monotonic() - started) * 1000)
                    return GenerationResponse(text, latency, self.model, attempt)
                if status in (429,) or status >= 500:
                    failure = f"HTTP {status}"
                else:
                    reason = raw.decode("utf-8", "replace")[:500]
                    raise ProviderError(f"HTTP {status}: {reason}")
            attempt += 1
            if attempt > RETRY_BUDGET:
                raise TransportError(f"retry budget exhausted: {failure}")
            time.sleep(BACKOFF_S * (2 ** (attempt - 1)))

    def _post(self, body: bytes) -> tuple[int, bytes]:
        """POST ``body`` over this thread's connection; the status and raw reply."""
        from ._http import open_link, post

        link = getattr(self._local, "link", None)
        if link is None:
            link = open_link(self._split, self._port, self.timeout, self._headers)
            self._local.link = link
        return post(link, body)


# -- reply parsing ------------------------------------------------------------

_NONE_RE = re.compile(r"\bnone\b", re.IGNORECASE)
_NOT_RELEVANT_RE = re.compile(r"\bno\s+relevant\b|\bnot\s+relevant\b", re.IGNORECASE)
_LETTER_RE = re.compile(r"(?<![A-Za-z])([A-Za-z])(?![A-Za-z])")
# a letter opening the reply, set off by punctuation or the end ("B," "(C)")
_LEADING_LETTER_RE = re.compile(r"[\W_]*([A-Za-z])(?:[^\w\s]|$)")
# a capital A or I opening the reply before a word, with another capital letter
# later in the same clause ("A strong match is B", "I think C")
_LEADING_WORD_RE = re.compile(
    r"[\W_]*([AI])\s+(?!(?:and|or)\b)[a-z][^,;.]*?(?<![A-Za-z])[A-Z](?![A-Za-z])"
)
_UNKNOWN_RE = re.compile(r"^[\s\W]*unknown\b", re.IGNORECASE)
_ANSWER_MARKER_RE = re.compile(r"answer\s*:", re.IGNORECASE)


def _option_index(letter: str) -> int:
    return ord(letter.upper()) - ord("A")


def parse_choice(text: str, n_options: int, k: int) -> list[int] | None:
    """Extract up to ``k`` distinct option indices from a reply.

    Accepts bare letters in any common dressing ("B", "B.", "(B)", "Option B",
    case-insensitive). When the reply holds a capital option letter, lowercase
    ones are read as words ("is a strong match: B" picks B), and so is an
    opening capital A or I before a word other than "and"/"or" when another
    capital letter follows within the same clause, that is, before the first
    ",", ";" or "." ("I think C" picks C, while "A is the best, B is second"
    picks A then B). Replies declaring no option relevant return ``None``; a
    bare "none" loses to an option letter that opens the reply ("B, because
    none of the others..."). Letters beyond ``n_options`` are ignored. A reply
    with neither a usable letter nor a none-phrase raises ReplyParseError.
    """
    if n_options < 1:
        raise ValueError("n_options must be >= 1")
    if not (1 <= k <= n_options):
        raise ValueError(f"k must be in [1, {n_options}], got {k}")
    if _NOT_RELEVANT_RE.search(text):
        return None
    if _NONE_RE.search(text):
        lead = _LEADING_LETTER_RE.match(text)
        if not (lead and _option_index(lead.group(1)) < n_options):
            return None
    letters = [ch for ch in _LETTER_RE.findall(text) if _option_index(ch) < n_options]
    capitals = [ch for ch in letters if ch.isupper()]
    lead = _LEADING_WORD_RE.match(text)
    if lead and len(capitals) > 1 and _option_index(lead.group(1)) < n_options:
        capitals.pop(0)  # the opening A or I is the first capital found
    indices = list(dict.fromkeys(_option_index(ch) for ch in capitals or letters))[:k]
    if not indices:
        raise ReplyParseError("no option letter or none-phrase found", text)
    return indices


def parse_verdict(text: str) -> ParsedVerdict:
    """Classify a reasoning reply as an answer or an insufficiency verdict.

    A reply that leads with "Unknown" (after punctuation) is the unknown
    verdict, as is one whose last "Answer:" marker is followed by nothing or
    by "Unknown" alone (see :func:`normalize_answer`); anything else is an
    answer, taking the text after the last marker when present, else the
    whole reply.
    """
    if _UNKNOWN_RE.match(text):
        return ParsedVerdict("unknown")
    matches = list(_ANSWER_MARKER_RE.finditer(text))
    answer = text[matches[-1].end() :] if matches else text
    answer = answer.strip()
    if not answer or (matches and normalize_answer(answer) == "unknown"):
        return ParsedVerdict("unknown")
    return ParsedVerdict("answer", answer)


_ARTICLES = ("a", "an", "the")
_PUNCT_TABLE = str.maketrans({ch: " " for ch in string.punctuation})


def normalize_answer(text: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace, drop leading articles.

    Shared by self-consistency voting and exact-match scoring; idempotent.
    """
    tokens = text.lower().translate(_PUNCT_TABLE).split()
    while len(tokens) > 1 and tokens[0] in _ARTICLES:
        tokens.pop(0)
    return " ".join(tokens)


# -- inner-knowledge baselines -------------------------------------------------

BASELINE_MODES = ("io", "cot", "cot_sc")
COT_SC_SAMPLES = 5


def baseline_answer(
    question: str,
    mode: str,
    gateway,
    templates_dir: str | Path | None = None,
) -> ParsedVerdict:
    """Answer from the model's own knowledge: direct, step-by-step, or voted.

    ``cot_sc`` issues ``COT_SC_SAMPLES`` step-by-step calls and majority-votes
    the normalized answers; ties resolve to the earliest sampled answer.
    """
    if mode not in BASELINE_MODES:
        raise ValueError(f"unknown baseline mode: {mode!r}")
    template = "baseline_io" if mode == "io" else "baseline_cot"
    bundle = render(template, templates_dir, question=question)
    if mode in ("io", "cot"):
        resp = gateway.generate(GenerationRequest(bundle, "baseline"))
        return parse_verdict(resp.text)

    req = GenerationRequest(dataclasses.replace(bundle, temperature=0.7), "baseline")
    verdicts = [parse_verdict(gateway.generate(req).text) for _ in range(COT_SC_SAMPLES)]
    keys = [normalize_answer(v.text) if v.kind == "answer" else "\x00unknown" for v in verdicts]
    # most_common keeps first-seen order among equal counts
    ((winner, _),) = Counter(keys).most_common(1)
    return verdicts[keys.index(winner)]
