"""Pluggable chat and rewrite backends with record/replay, and the embedders.

Every provider call is a JSON request/response pair. Requests are
fingerprinted by hashing their canonical serialization, which makes
recorded transcripts stable across runs and platforms and lets any
pipeline run be replayed bit-for-bit with zero network access. Embeddings
are not recorded: :class:`HashingEmbedder` is offline, :class:`HttpEmbedder` live.
Both return :class:`doc2table.retrieval.Embeddings`, whose
``scores(queries)`` gives cosines. The hashing embedder keeps sparse
integer 3-gram counts (:class:`SparseCounts`) and scores by exact integer
dot products over posting lists; the live one keeps dense unit rows
(:class:`DenseVectors`) and scores by one matrix product.

Live backends are :class:`HttpProvider`, which POSTs each request as JSON
through an :class:`HttpTransport`: the standard library's ``http.client``
with one keep-alive connection per worker thread, and no proxies.
Transport errors, timeouts, 5xx, 408, 429 and replies that are not a JSON
object are retried with exponential backoff; any other status outside 2xx,
3xx included, fails at once, since redirects are not followed. A run's live
providers share one :class:`RequestSlots`, which bounds the requests in
flight; a call waiting out a backoff holds no slot.

Wire contracts:
  chat     {"messages": [{"role", "content"}], "temperature": 0.0,
            "max_tokens": 2048} -> {"content": str}  (sampling values fixed)
  rewrite  {"mode": "question" | "sentence", "text": str}
           -> {"outputs": [str]}
  embed    {"texts": [str]} -> {"vectors": [[float]]}
"""
from __future__ import annotations

import hashlib
import json
import logging
import threading
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Protocol
from urllib.parse import urlsplit

import numpy as np

from .data import InputFormatError, canonical_json, read_jsonl, write_jsonl

logger = logging.getLogger(__name__)

EMBED_DIM = 4096
RETRYABLE_4XX = (408, 429)  # request timeout and rate limit: a later attempt may succeed


class ProviderError(RuntimeError):
    """Transport or contract failure of a provider backend."""


class ReplayMissError(ProviderError):
    """A replay transcript has no entry for the request fingerprint."""

    def __init__(self, fp: str):
        super().__init__(
            f"no recorded response for request fingerprint {fp}; "
            "refusing to fall through to the network"
        )
        self.fingerprint = fp


def request_fingerprint(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


@dataclass
class Transcript:
    """Recorded request/response pairs keyed by request fingerprint."""

    entries: dict[str, dict] = field(default_factory=dict)
    requests: dict[str, dict] = field(default_factory=dict)  # what record() added, for save()
    provider: str = ""
    captured: str = ""

    def record(self, request: dict, response: dict) -> None:
        fp = request_fingerprint(request)
        self.entries[fp] = response
        self.requests[fp] = request

    def lookup(self, request: dict) -> dict:
        fp = request_fingerprint(request)
        if fp not in self.entries:
            raise ReplayMissError(fp)
        return self.entries[fp]

    def save(self, path: str | Path) -> None:
        """Write every entry, replacing ``path`` atomically and making its directory."""
        meta = {"meta": {"provider": self.provider, "captured": self.captured}}
        entries = (
            {"fingerprint": fp, "request": self.requests.get(fp), "response": self.entries[fp]}
            for fp in sorted(self.entries)
        )
        write_jsonl(path, [meta, *entries])

    @classmethod
    def load(cls, path: str | Path) -> Transcript:
        """Read a transcript that :meth:`save` wrote.

        Every non-blank line is a JSON object: either ``{"meta": {...}}`` or
        an entry with a string ``fingerprint`` and an object ``response``.
        Any other line raises ``ValueError`` naming the file and its
        1-based line number. Only the responses are kept: a loaded
        transcript is replayed, never saved again.
        """
        transcript = cls()
        try:
            for number, record in read_jsonl(path):
                if isinstance(record.get("meta"), dict):
                    transcript.provider = record["meta"].get("provider", "")
                    transcript.captured = record["meta"].get("captured", "")
                    continue
                if not (
                    isinstance(record.get("fingerprint"), str)
                    and isinstance(record.get("response"), dict)
                ):
                    raise ValueError(
                        f"{path}, line {number}: expected a JSON object with a string"
                        " 'fingerprint' and an object 'response'"
                    )
                transcript.entries[record["fingerprint"]] = record["response"]
        except InputFormatError as exc:
            raise ValueError(f"{path}, line {exc.line}: {exc.reason}") from None
        return transcript


class JsonProvider(Protocol):
    def call(self, request: dict) -> dict: ...


class ScriptedProvider:
    """Test/backfill backend: a plain function produces the response."""

    def __init__(self, handler: Callable[[dict], dict]):
        self._handler = handler

    def call(self, request: dict) -> dict:
        return self._handler(request)


class ReplayProvider:
    """Serves recorded responses only; replay misses fail loudly."""

    def __init__(self, transcript: Transcript):
        self.transcript = transcript

    def call(self, request: dict) -> dict:
        return self.transcript.lookup(request)


class RecordingProvider:
    """Delegates to an inner provider and appends to a transcript."""

    def __init__(self, inner: JsonProvider, transcript: Transcript):
        self.inner = inner
        self.transcript = transcript
        self._lock = threading.Lock()

    def call(self, request: dict) -> dict:
        response = self.inner.call(request)
        with self._lock:
            self.transcript.record(request, response)
        return response


class _IdleConnections(list):
    """One thread's idle connection, if it has one, closed when the thread ends or the transport goes."""

    def __del__(self):
        for connection in self:
            connection.close()


class HttpTransport:
    """POSTs bytes to one endpoint over one persistent HTTP/1.1 connection per thread.

    The endpoint is split and checked once, here: one that does not split,
    names no host, has a bad port or a scheme other than http and https
    raises :class:`ProviderError`, so it fails when the run is built.

    Each thread keeps its own ``http.client`` connection, so worker threads
    never share a socket. A connection that has already served a reply and
    then fails with ``RemoteDisconnected``, ``BrokenPipeError`` or
    ``ConnectionResetError`` is a keep-alive the server dropped: it is
    reopened once and the request resent. A failure on a fresh connection
    is raised, and so is any other exception; either way the connection is
    closed and discarded, so a half-read response is never reused.

    This is the standard library's client and no more: ``https`` uses
    ``ssl.create_default_context()``, redirects are not followed, and the
    ``*_PROXY`` and ``REQUESTS_CA_BUNDLE``/``CURL_CA_BUNDLE`` environment
    variables are not honoured.
    """

    def __init__(self, endpoint: str):
        import http.client  # deferred so offline modes never import it

        try:
            parts = urlsplit(endpoint)
            port = parts.port
        except ValueError as exc:  # an unclosed IPv6 bracket, or a port that is not a number in range
            raise ProviderError(f"endpoint {endpoint!r}: {exc}") from None
        if not parts.hostname:
            raise ProviderError(f"endpoint {endpoint!r} names no host")
        if parts.scheme == "https":
            import ssl

            self._connect = partial(
                http.client.HTTPSConnection, parts.hostname, port, context=ssl.create_default_context()
            )
        elif parts.scheme == "http":
            self._connect = partial(http.client.HTTPConnection, parts.hostname, port)
        else:
            raise ProviderError(f"endpoint {endpoint!r} is not an http or https URL")
        self._target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        self._local = threading.local()

    def post(self, body: bytes, headers: dict[str, str], timeout: float) -> tuple[int, bytes]:
        """Send one POST and return the reply's status and its whole body."""
        if not hasattr(self._local, "idle"):
            self._local.idle = _IdleConnections()
        # taken out while in use, so an exception leaves nothing behind to reuse
        connection = self._local.idle.pop() if self._local.idle else None
        reused = connection is not None
        while True:
            if connection is None:
                connection = self._connect(timeout=timeout)
            try:
                if connection.sock is not None:
                    connection.sock.settimeout(timeout)
                connection.request("POST", self._target, body=body, headers=headers)
                response = connection.getresponse()
                data = response.read()
            except (BrokenPipeError, ConnectionResetError):  # RemoteDisconnected is a ConnectionResetError
                connection.close()
                if not reused:
                    raise
                connection, reused = None, False
                continue
            except BaseException:
                connection.close()
                raise
            if not response.will_close:
                self._local.idle.append(connection)
            return response.status, data


class RequestSlots:
    """At most ``n`` holders at once, each slot handed to the longest waiter.

    A ``with`` block holds one slot. A released slot passes straight to the
    thread that has waited longest, so a thread that releases one cannot
    take it back ahead of the waiters, as it can with a plain semaphore
    while it keeps the interpreter lock.
    """

    def __init__(self, n: int):
        self._lock = threading.Lock()
        self._free = n
        self._waiting: deque[threading.Event] = deque()

    def __enter__(self) -> None:
        with self._lock:
            if self._free:
                self._free -= 1
                return
            turn = threading.Event()
            self._waiting.append(turn)
        turn.wait()

    def __exit__(self, *exc) -> None:
        with self._lock:
            if self._waiting:
                self._waiting.popleft().set()
            else:
                self._free += 1


class HttpProvider:
    """POSTs the request as JSON, retrying with exponential backoff between attempts.

    The request is encoded once, as ``json.dumps(request, allow_nan=False)``
    in ASCII; one that cannot be encoded (a NaN or infinity, or a value that
    is not JSON) fails at once, before any attempt. Transport errors,
    timeouts, 5xx, 408 and 429 are retried, and so is a reply whose body is
    not a JSON object (undecodable, or a list, string or null). Any other
    status outside 2xx fails at once: a 4xx, and a 3xx too, since redirects
    are not followed. Every failure ends as a :class:`ProviderError`.
    ``transport`` defaults to ``HttpTransport(endpoint)``, so an endpoint
    with no host, a bad port or a scheme other than http and https fails
    when the provider, and so the run, is built, before any request.

    ``slots``, if given, bounds how many requests are in flight at once
    (:class:`RequestSlots`); a run shares one among all its live providers (see
    :func:`doc2table.config.build_providers`). Each attempt holds a slot only
    while it posts, never through the backoff before the next attempt, so a
    call that waits to retry leaves its slot to another call.
    """

    def __init__(
        self,
        endpoint: str,
        api_key: str | None = None,
        timeout: float = 60.0,
        max_retries: int = 3,
        backoff: float = 0.5,
        transport=None,
        slots: RequestSlots | None = None,
    ):
        self.endpoint = endpoint
        self.api_key = api_key
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self._transport = HttpTransport(endpoint) if transport is None else transport
        self._slots = nullcontext() if slots is None else slots

    def call(self, request: dict) -> dict:
        try:
            body = json.dumps(request, allow_nan=False).encode("ascii")
        except (TypeError, ValueError) as exc:
            raise ProviderError(f"request to {self.endpoint} cannot be sent as JSON: {exc}") from None
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_error = ""
        for attempt in range(self.max_retries):
            if attempt:
                time.sleep(self.backoff * 2 ** (attempt - 1))
            try:
                with self._slots:
                    status, data = self._transport.post(body, headers, self.timeout)
                if not 200 <= status < 300:
                    if status < 500 and status not in RETRYABLE_4XX:
                        redirect = " (redirects are not followed)" if status < 400 else ""
                        raise ProviderError(
                            f"provider at {self.endpoint} rejected the request with HTTP {status}{redirect}"
                        )
                    raise RuntimeError(f"HTTP {status}")
                reply = json.loads(data)
                if not isinstance(reply, dict):
                    raise ValueError(f"reply is not a JSON object (got {type(reply).__name__})")
                return reply
            except ProviderError:
                raise  # a status that no retry can fix
            except Exception as exc:  # transport errors, timeouts, 5xx, 408, 429 and bad bodies alike
                last_error = str(exc)  # not exc, whose traceback would keep this frame and self alive
                logger.warning("provider call failed (attempt %d): %s", attempt + 1, last_error)
        raise ProviderError(f"provider at {self.endpoint} failed after {self.max_retries} attempts: {last_error}")


class ChatProvider:
    """Role wrapper for the chat wire contract."""

    def __init__(self, backend: JsonProvider):
        self.backend = backend

    def complete(self, messages: list[dict]) -> str:
        response = self.backend.call({"messages": messages, "temperature": 0.0, "max_tokens": 2048})
        if not isinstance(response.get("content"), str):
            raise ProviderError(f"chat response has no string 'content': {response}")
        return response["content"]


class Rewriter:
    """Role wrapper for the rewrite wire contract."""

    def __init__(self, backend: JsonProvider):
        self.backend = backend

    def rewrite(self, mode: str, text: str) -> list[str]:
        response = self.backend.call({"mode": mode, "text": text})
        outputs = response.get("outputs")
        if not isinstance(outputs, list):
            raise ProviderError(f"rewrite response missing 'outputs': {response}")
        if not all(isinstance(o, str) for o in outputs):
            raise ProviderError(f"rewrite response has a non-string output: {response}")
        return list(outputs)


class IdentityRewriteBackend:
    """Offline default: every text rewrites to itself."""

    def call(self, request: dict) -> dict:
        return {"outputs": [request["text"]]}


def _bucket(gram: str) -> int:
    """The hashing embedder's bucket for one 3-gram.

    A lone surrogate, which JSON input and rewriter replies can carry, is
    hashed by its surrogatepass UTF-8 bytes; every other gram by its UTF-8.
    """
    digest = hashlib.blake2b(gram.encode("utf-8", "surrogatepass"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % EMBED_DIM


class DenseVectors:
    """L2-normalized rows of a dense matrix; scores are one matrix product."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix
        self.dim = matrix.shape[1]

    def scores(self, queries: DenseVectors) -> np.ndarray:
        return (self.matrix @ queries.matrix.T).T


class SparseCounts:
    """Integer 3-gram bucket counts of texts, kept sparse as posting lists.

    ``rows``, ``buckets`` and ``counts`` are the texts' non-zero entries in
    (bucket, row) order, so bucket ``b``'s posting list is entries
    ``indptr[b]:indptr[b + 1]``. A score is the exact integer dot product
    of two count vectors divided by the product of their L2 norms; a zero
    vector scores 0 against anything.
    """

    dim = EMBED_DIM

    def __init__(self, n: int, rows: np.ndarray, buckets: np.ndarray, counts: np.ndarray):
        self.n, self.rows, self.buckets, self.counts = n, rows, buckets, counts
        # integer counts: these float sums, like the dot products, are exact below 2**53
        self.norms = np.sqrt(np.bincount(rows, weights=counts * counts, minlength=n))
        self.indptr = np.zeros(EMBED_DIM + 1, dtype=np.int64)
        np.cumsum(np.bincount(buckets, minlength=EMBED_DIM), out=self.indptr[1:])

    def scores(self, queries: SparseCounts) -> np.ndarray:
        dots = np.empty((queries.n, self.n))
        for q in range(queries.n):
            own = queries.rows == q
            buckets, counts = queries.buckets[own], queries.counts[own]
            starts = self.indptr[buckets]
            lengths = self.indptr[buckets + 1] - starts
            # every entry of those buckets' posting lists, list after list
            hits = np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())
            dots[q] = np.bincount(
                self.rows[hits], weights=np.repeat(counts, lengths) * self.counts[hits], minlength=self.n
            )
        norms = np.outer(queries.norms, self.norms)
        return np.divide(dots, norms, out=dots, where=norms > 0)  # a zero norm has a zero dot


class HashingEmbedder:
    """Deterministic offline embedder: character 3-gram feature hashing.

    Texts are whitespace-collapsed and padded with one boundary space on
    each side; each 3-gram is counted into one of 4096 buckets chosen by a
    stable blake2b hash. ``embed`` keeps the integer counts sparse
    (:class:`SparseCounts`), since a text fills a few dozen of the 4096
    buckets, and hashes each distinct gram of a call once. A cosine is the
    exact integer dot product of two count vectors over the product of
    their L2 norms. Empty and whitespace-only texts map to the zero vector,
    whose cosine against anything is defined as 0.
    """

    def embed(self, texts: list[str]) -> SparseCounts:
        padded = [" " + " ".join(text.split()) + " " for text in texts]
        joined = "".join(padded)
        points = np.frombuffer(joined.encode("utf-32-le", "surrogatepass"), dtype="<u4").astype(np.int64)
        # a gram starting at one of the last two characters of a text would
        # cross into the next one
        ends = np.cumsum([len(p) for p in padded], dtype=np.int64)
        is_start = np.ones(len(joined), dtype=bool)
        is_start[ends - 1] = is_start[ends - 2] = False
        starts = np.flatnonzero(is_start)
        gram_rows = np.repeat(np.arange(len(texts)), np.diff(ends, prepend=0))[starts]
        # every code point is below 2**21, so a gram's three fit one int64
        codes = points[starts] << 42 | points[starts + 1] << 21 | points[starts + 2]
        grams, inverse = np.unique(codes, return_inverse=True)
        low = (1 << 21) - 1
        gram_buckets = np.array(
            [_bucket(chr(c >> 42) + chr(c >> 21 & low) + chr(c & low)) for c in grams.tolist()],
            dtype=np.int64,
        )
        # one key per (bucket, row) pair, so the sorted keys are the posting lists
        keys, counts = np.unique(gram_buckets[inverse] * len(texts) + gram_rows, return_counts=True)
        buckets, rows = np.divmod(keys, len(texts))
        return SparseCounts(len(texts), rows, buckets, counts)


class HttpEmbedder:
    """Embedding over the HTTP wire contract; enforces constant dimension."""

    def __init__(self, backend: JsonProvider):
        self.backend = backend

    def embed(self, texts: list[str]) -> DenseVectors:
        response = self.backend.call({"texts": list(texts)})
        vectors = response.get("vectors")
        if not isinstance(vectors, list) or len(vectors) != len(texts):
            raise ProviderError("embedding response malformed or wrong length")
        # exact types: JSON true and false decode to bool, which is not a number here
        if not all(isinstance(v, list) and {type(x) for x in v} <= {int, float} for v in vectors):
            raise ProviderError("embedding response has a row that is not a list of numbers")
        dims = {len(v) for v in vectors}
        if len(dims) > 1:
            raise ProviderError(f"embedding dimension drift within batch: {sorted(dims)}")
        out = np.asarray(vectors, dtype=np.float64)
        if not np.isfinite(out).all():  # json decodes NaN and Infinity
            raise ProviderError("embedding response has a value that is not finite")
        norms = np.linalg.norm(out, axis=1)
        nonzero = norms > 0
        out[nonzero] = out[nonzero] / norms[nonzero, None]
        return DenseVectors(out)

