from __future__ import annotations

import gc
import hashlib
import http.client
import json
import math
import re
import ssl
import sys
import threading
import time
import weakref
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doc2table import providers
from doc2table.providers import (
    ChatProvider,
    HashingEmbedder,
    HttpEmbedder,
    HttpProvider,
    HttpTransport,
    ProviderError,
    RecordingProvider,
    ReplayMissError,
    ReplayProvider,
    RequestSlots,
    Rewriter,
    ScriptedProvider,
    Transcript,
    canonical_json,
    request_fingerprint,
    rewrite_to_itself,
)

from oracles import reference_hashing_embed, reference_hashing_scores, reference_transcript_text

# JSON text with non-ASCII and non-BMP characters, and nested JSON objects
json_text = st.one_of(st.text(max_size=12), st.sampled_from(["", "д", "漢字", "😀 x", "\u2028"]))


def json_objects_with(floats):
    values = st.recursive(
        st.none() | st.booleans() | st.integers() | floats | json_text,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(json_text, inner, max_size=3),
        max_leaves=8,
    )
    return st.dictionaries(json_text, values, max_size=4)


json_objects = json_objects_with(st.floats(allow_nan=False))


class TestFingerprinting:
    def test_stable_across_key_order(self):
        a = {"b": 1, "a": [1, 2], "nested": {"y": 0, "x": 1}}
        b = {"nested": {"x": 1, "y": 0}, "a": [1, 2], "b": 1}
        assert request_fingerprint(a) == request_fingerprint(b)

    def test_different_payloads_differ(self):
        assert request_fingerprint({"a": 1}) != request_fingerprint({"a": 2})

    def test_canonical_json_is_compact_and_sorted(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_reserialization_stability(self):
        payload = {"messages": [{"role": "user", "content": "hé −"}], "temperature": 0.0}
        once = request_fingerprint(payload)
        again = request_fingerprint(json.loads(canonical_json(payload)))
        assert once == again


class TestReplay:
    def test_hit_returns_recorded_response(self):
        transcript = Transcript()
        transcript.record({"q": 1}, {"answer": "yes"})
        provider = ReplayProvider(transcript)
        assert provider.call({"q": 1}) == {"answer": "yes"}

    def test_miss_names_fingerprint(self):
        provider = ReplayProvider(Transcript())
        with pytest.raises(ReplayMissError) as excinfo:
            provider.call({"q": "unknown"})
        assert excinfo.value.fingerprint == request_fingerprint({"q": "unknown"})
        assert "refusing" in str(excinfo.value)

    def test_record_then_replay_bit_identical(self, tmp_path):
        transcript = Transcript(provider="test", captured="2024-01-01")
        recorder = RecordingProvider(ScriptedProvider(lambda r: {"echo": r["x"] * 2}), transcript)
        first = [recorder.call({"x": i}) for i in range(5)]
        path = tmp_path / "t.jsonl"
        transcript.save(path)

        replay = ReplayProvider(Transcript.load(path))
        second = [replay.call({"x": i}) for i in range(5)]
        assert first == second

    def test_transcript_save_load_round_trip(self, tmp_path):
        transcript = Transcript(provider="p", captured="2024-02-02")
        transcript.record({"a": 1}, {"b": [1, 2, {"c": "д"}]})
        path = tmp_path / "t.jsonl"
        transcript.save(path)
        loaded = Transcript.load(path)
        assert loaded.entries == transcript.entries
        assert loaded.provider == "p"
        assert loaded.captured == "2024-02-02"

    @pytest.mark.parametrize(
        "line",
        ["not json", "[]", '"text"', '{"response": {}}', '{"fingerprint": "f"}',
         '{"fingerprint": 3, "response": {}}', '{"fingerprint": "f", "response": [1]}',
         '{"meta": 1}'],
    )
    def test_transcript_load_names_the_bad_line(self, tmp_path, line):
        path = tmp_path / "t.jsonl"
        path.write_text('{"meta": {"provider": "p"}}\n\n' + line + "\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}, line 3: ")):
            Transcript.load(path)

    def test_transcript_load_rejects_a_repeated_fingerprint(self, tmp_path):
        request = {"mode": "sentence", "text": "a"}
        fp = request_fingerprint(request)
        path = tmp_path / "t.jsonl"
        path.write_text(
            "".join(
                json.dumps({"fingerprint": fp, "request": request, "response": {"outputs": [text]}}) + "\n"
                for text in ("first", "second")
            )
        )
        with pytest.raises(ValueError) as excinfo:
            Transcript.load(path)
        assert str(excinfo.value) == f"{path}, line 2: repeated fingerprint {fp}"

    def test_transcript_save_makes_its_directory(self, tmp_path):
        transcript = Transcript(provider="p")
        for i in range(3):
            transcript.record({"x": i}, {"y": i})
        path = tmp_path / "missing" / "deeper" / "t.jsonl"
        transcript.save(path)
        assert Transcript.load(path).entries == transcript.entries
        assert [p.name for p in path.parent.iterdir()] == ["t.jsonl"]  # no temporary file left

    @given(json_text, json_text, st.lists(st.tuples(json_objects, json_objects), max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_transcript_bytes_equal_the_reference_and_load_back(
        self, tmp_path_factory, provider, captured, pairs
    ):
        transcript = Transcript(provider=provider, captured=captured)
        for request, response in pairs:
            transcript.record(request, response)
        path = tmp_path_factory.mktemp("transcript") / "t.jsonl"
        transcript.save(path)
        expected = reference_transcript_text(provider, captured, pairs)
        assert path.read_bytes() == expected.encode("ascii")
        loaded = Transcript.load(path)
        assert (loaded.provider, loaded.captured) == (provider, captured)
        assert loaded.entries == transcript.entries
        assert loaded.requests == {}  # a loaded transcript is only replayed

    def test_transcript_save_is_deterministic(self, tmp_path):
        def build():
            t = Transcript()
            for i in (3, 1, 2):
                t.record({"x": i}, {"y": i})
            return t

        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        build().save(p1)
        build().save(p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestChatAndRewrite:
    def test_chat_builds_fingerprintable_request(self):
        seen = {}

        def handler(request):
            seen.update(request)
            return {"content": "ok"}

        chat = ChatProvider(ScriptedProvider(handler))
        assert chat.complete([{"role": "user", "content": "hi"}]) == "ok"
        assert seen == {
            "messages": [{"role": "user", "content": "hi"}],
            "temperature": 0.0,
            "max_tokens": 2048,
        }

    def test_chat_missing_content_is_provider_error(self):
        chat = ChatProvider(ScriptedProvider(lambda r: {"oops": 1}))
        with pytest.raises(ProviderError):
            chat.complete([{"role": "user", "content": "hi"}])

    @pytest.mark.parametrize("content", [None, 3, ["a"]])
    def test_chat_non_string_content_is_provider_error(self, content):
        chat = ChatProvider(ScriptedProvider(lambda r: {"content": content}))
        with pytest.raises(ProviderError, match="no string 'content'"):
            chat.complete([{"role": "user", "content": "hi"}])

    def test_identity_rewriter(self):
        rewriter = Rewriter(ScriptedProvider(rewrite_to_itself))
        assert rewriter.rewrite("sentence", "unchanged") == ["unchanged"]

    def test_rewrite_contract_violation(self):
        rewriter = Rewriter(ScriptedProvider(lambda r: {"not_outputs": []}))
        with pytest.raises(ProviderError):
            rewriter.rewrite("question", "q")

    @pytest.mark.parametrize("outputs", [[None], ["ok", 2], [["nested"]]])
    def test_rewrite_non_string_output_is_provider_error(self, outputs):
        rewriter = Rewriter(ScriptedProvider(lambda r: {"outputs": outputs}))
        with pytest.raises(ProviderError, match="non-string output"):
            rewriter.rewrite("question", "q")


def hashed_entries(vectors) -> list[tuple[int, int, int]]:
    """The (row, bucket, count) entries of a :class:`SparseCounts`, in (row, bucket) order."""
    return sorted(zip(vectors.rows.tolist(), vectors.buckets.tolist(), vectors.counts.tolist()))


# Texts with ties and duplicates among them, empty, whitespace-only and
# one-character texts, non-BMP characters and lone surrogates.
hashing_texts = st.one_of(
    st.text(max_size=40),
    st.text(alphabet=st.sampled_from("ab 7\t\u00e9\U0001f600\ud800\udfff"), max_size=8),
    st.sampled_from(["", " ", "\t\n ", "7", "\u00e9", "\U0001f600", "\ud800", "a\udc00b", "a  b", "aaaa aaaa"]),
)


class TestHashingEmbedder:
    def test_deterministic(self):
        embedder = HashingEmbedder()
        a = embedder.embed(["same text"])
        b = embedder.embed(["same text"])
        assert hashed_entries(a) == hashed_entries(b)

    def test_dimension_and_unit_norm(self):
        vectors = HashingEmbedder().embed(["alpha", "beta gamma delta"])
        assert vectors.dim == 4096 and vectors.n == 2
        for value in np.diag(vectors.scores(vectors)):
            assert math.isclose(value, 1.0, rel_tol=1e-12)

    def test_near_strings_share_some_grams(self):
        # " abc " and " abd " share the boundary 3-gram " ab" only, so the
        # cosine is strictly between 0 and 1.
        vectors = HashingEmbedder().embed(["abc", "abd"])
        value = vectors.scores(vectors)[0, 1]
        assert 0.0 < value < 1.0

    def test_empty_string_is_zero_vector(self):
        vectors = HashingEmbedder().embed(["", "word"])
        assert vectors.norms[0] == 0.0 and 0 not in vectors.rows
        scores = vectors.scores(vectors)
        assert scores[0].tolist() == [0.0, 0.0] and scores[:, 0].tolist() == [0.0, 0.0]

    def test_whitespace_insensitive_collapse(self):
        embedder = HashingEmbedder()
        assert hashed_entries(embedder.embed(["a  b"])) == hashed_entries(embedder.embed(["a b"]))

    def test_cosine_self_is_one(self):
        v = HashingEmbedder().embed(["some nonempty text"])
        assert math.isclose(v.scores(v)[0, 0], 1.0, rel_tol=1e-12)

    def test_one_character_text_counts_its_one_gram(self):
        vectors = HashingEmbedder().embed(["7", " 7\t"])
        (row0, bucket0, count0), (row1, bucket1, count1) = hashed_entries(vectors)
        assert (row0, count0, row1, count1) == (0, 1, 1, 1) and bucket0 == bucket1

    def test_grams_do_not_cross_text_boundaries(self):
        embedder = HashingEmbedder()
        joined = embedder.embed(["ab", "cd"])
        alone = [hashed_entries(embedder.embed([text])) for text in ("ab", "cd")]
        assert hashed_entries(joined) == alone[0] + [(1, b, c) for _, b, c in alone[1]]

    def test_lone_surrogate_is_hashed_by_its_surrogatepass_bytes(self):
        vectors = HashingEmbedder().embed(["\ud800"])
        digest = hashlib.blake2b(" \ud800 ".encode("utf-8", "surrogatepass"), digest_size=8).digest()
        assert hashed_entries(vectors) == [(0, int.from_bytes(digest, "big") % 4096, 1)]

    @given(st.lists(hashing_texts, max_size=8), st.lists(hashing_texts, min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_scores_bit_equal_to_reference(self, sentences, queries):
        embedder = HashingEmbedder()
        queries = queries + sentences[:1]  # a query equal to a sentence: a tie at the top
        scores = embedder.embed(sentences).scores(embedder.embed(queries))
        expected = np.array(reference_hashing_scores(sentences, queries), dtype=np.float64)
        assert scores.shape == (len(queries), len(sentences))
        assert scores.tobytes() == expected.reshape(scores.shape).tobytes()

    def test_scores_agree_with_the_dense_reference(self):
        texts = ["alpha beta", "beta gamma", "", "7", "\U0001f600 x", "alpha beta"]
        vectors = HashingEmbedder().embed(texts)
        dense = reference_hashing_embed(texts)
        np.testing.assert_allclose(vectors.scores(vectors), dense @ dense.T, rtol=0, atol=1e-15)


class TestHttpEmbedder:
    def test_dimension_drift_rejected(self):
        backend = ScriptedProvider(lambda r: {"vectors": [[1.0, 0.0], [1.0, 0.0, 0.0]]})
        with pytest.raises(ProviderError):
            HttpEmbedder(backend).embed(["a", "b"])

    def test_empty_rows_rejected(self):
        backend = ScriptedProvider(lambda r: {"vectors": [[], [], []]})
        with pytest.raises(ProviderError, match="nonzero dimension"):
            HttpEmbedder(backend).embed(["a", "b", "c"])

    def test_normalizes_vectors(self):
        backend = ScriptedProvider(lambda r: {"vectors": [[3.0, 4.0]]})
        out = HttpEmbedder(backend).embed(["a"])
        assert out.dim == 2
        assert out.matrix[0] == pytest.approx([0.6, 0.8])

    def test_wrong_length_rejected(self):
        backend = ScriptedProvider(lambda r: {"vectors": [[1.0]]})
        with pytest.raises(ProviderError):
            HttpEmbedder(backend).embed(["a", "b"])

    @pytest.mark.parametrize(
        "vectors",
        [[1, 2], [["x"], ["y"]], [[True, 0.5], [1.0, 0.5]], [[1.0, None], [1.0, 2.0]], [{}, []]],
    )
    def test_row_that_is_not_a_list_of_numbers_rejected(self, vectors):
        backend = ScriptedProvider(lambda r: {"vectors": vectors})
        with pytest.raises(ProviderError):
            HttpEmbedder(backend).embed(["a", "b"])

    def test_integer_rows_are_numbers(self):
        backend = ScriptedProvider(lambda r: {"vectors": [[3, 4], [0, 0]]})
        out = HttpEmbedder(backend).embed(["a", "b"])
        assert out.matrix.tolist() == [[0.6, 0.8], [0.0, 0.0]]

    def test_scores_are_the_matrix_product(self):
        sentences = [[3, 4], [0, 0], [1, 0]]
        backend = ScriptedProvider(lambda r: {"vectors": sentences if len(r["texts"]) == 3 else [[0, 2]]})
        embedder = HttpEmbedder(backend)
        vectors, queries = embedder.embed(["a", "b", "c"]), embedder.embed(["q"])
        assert vectors.scores(queries).tolist() == [[0.8, 0.0, 0.0]]

    @pytest.mark.parametrize(
        "body",
        [
            '{"vectors": [[NaN, 1.0], [Infinity, 0.0]]}',
            '{"vectors": [[1.0, 0.0], [-Infinity, 0.0]]}',
            '{"vectors": [[0.0, NaN], [1.0, 0.0]]}',
        ],
    )
    def test_non_finite_value_rejected(self, body):
        # Python's json decodes NaN and Infinity, so a reply can carry them.
        backend = ScriptedProvider(lambda r: json.loads(body))
        with pytest.raises(ProviderError, match="not finite"):
            HttpEmbedder(backend).embed(["a", "b"])


def reply(payload=None, status=200) -> tuple[int, bytes]:
    return status, json.dumps({} if payload is None else payload).encode()


class FakeTransport:
    """Records each ``(body, headers, timeout)`` and answers with the next outcome."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def post(self, body, headers, timeout):
        self.calls.append((body, headers, timeout))
        outcome = self.outcomes[len(self.calls) - 1]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


@pytest.fixture
def schedule(monkeypatch):
    """Sets HttpProvider's retry constants for one test, as ``schedule(MAX_ATTEMPTS=2)``."""

    def set_constants(**values):
        for name, value in values.items():
            monkeypatch.setattr(providers, name, value)

    return set_constants


class TestHttpProvider:
    def test_retry_schedule(self):
        assert (providers.TIMEOUT_S, providers.MAX_ATTEMPTS, providers.BACKOFF_S) == (60.0, 3, 0.5)

    def test_retries_then_succeeds(self, schedule):
        transport = FakeTransport(
            [
                ConnectionError("down"),
                reply(status=500),
                reply(["not", "an", "object"]),
                (200, b"{not json"),
                reply({"content": "hi"}),
            ]
        )
        schedule(MAX_ATTEMPTS=5, BACKOFF_S=0.0)
        provider = HttpProvider("http://x/chat", transport=transport)
        assert provider.call({"q": 1}) == {"content": "hi"}
        assert len(transport.calls) == 5

    def test_exhausted_retries_raise(self, schedule):
        transport = FakeTransport([ConnectionError("down")] * 3)
        schedule(BACKOFF_S=0.0)
        provider = HttpProvider("http://x/chat", transport=transport)
        with pytest.raises(ProviderError) as excinfo:
            provider.call({"q": 1})
        assert "3 attempts" in str(excinfo.value)

    def test_sleeps_only_between_attempts(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("doc2table.providers.time.sleep", sleeps.append)
        transport = FakeTransport([ConnectionError("down")] * 3)
        provider = HttpProvider("http://x/chat", transport=transport)
        with pytest.raises(ProviderError):
            provider.call({"q": 1})
        assert len(transport.calls) == 3
        assert sleeps == [0.5, 1.0]

    @pytest.mark.parametrize("status", [404, 301])
    def test_client_error_and_redirect_are_not_retried(self, status, monkeypatch):
        sleeps = []
        monkeypatch.setattr("doc2table.providers.time.sleep", sleeps.append)
        transport = FakeTransport([reply(status=status), reply({"content": "hi"})])
        provider = HttpProvider("http://x/chat", transport=transport)
        with pytest.raises(ProviderError) as excinfo:
            provider.call({"q": 1})
        assert f"HTTP {status}" in str(excinfo.value)
        assert len(transport.calls) == 1
        assert sleeps == []

    def test_timeout_and_rate_limit_are_retried_other_client_errors_are_not(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("doc2table.providers.time.sleep", sleeps.append)
        outcomes = [408, 429, 403, 200]
        transport = FakeTransport([reply({"content": "hi"}, status=code) for code in outcomes])
        monkeypatch.setattr(providers, "MAX_ATTEMPTS", 5)
        provider = HttpProvider("http://x/chat", transport=transport)
        with pytest.raises(ProviderError) as excinfo:
            provider.call({"q": 1})
        assert "HTTP 403" in str(excinfo.value)
        assert len(transport.calls) == 3
        assert sleeps == [0.5, 1.0]

    @pytest.mark.parametrize("body", [["a"], "text", None])
    @pytest.mark.parametrize(
        "role",
        [
            lambda backend: ChatProvider(backend).complete([{"role": "user", "content": "q"}]),
            lambda backend: Rewriter(backend).rewrite("sentence", "text"),
            lambda backend: HttpEmbedder(backend).embed(["text"]),
        ],
        ids=["chat", "rewrite", "embed"],
    )
    def test_non_object_reply_is_retried_then_provider_error(self, role, body, monkeypatch):
        sleeps = []
        monkeypatch.setattr("doc2table.providers.time.sleep", sleeps.append)
        transport = FakeTransport([(200, json.dumps(body).encode())] * 3)
        backend = HttpProvider("http://x", transport=transport)
        with pytest.raises(ProviderError) as excinfo:
            role(backend)
        assert "3 attempts" in str(excinfo.value)
        assert f"not a JSON object (got {type(body).__name__})" in str(excinfo.value)
        assert len(transport.calls) == 3
        assert sleeps == [0.5, 1.0]

    def test_api_key_header(self):
        transport = FakeTransport([reply({"ok": 1})])
        provider = HttpProvider("http://x", api_key="secret", transport=transport)
        provider.call({})
        assert transport.calls[0][1]["Authorization"] == "Bearer secret"

    @settings(max_examples=50, deadline=None)
    @given(json_objects_with(st.floats(allow_nan=False, allow_infinity=False)))
    def test_body_is_the_json_dumps_bytes_every_attempt(self, payload):
        transport = FakeTransport([reply(status=503), reply({"ok": 1})])
        provider = HttpProvider("http://x/chat", transport=transport)
        with pytest.MonkeyPatch.context() as patch:  # read at each call, not when the provider is built
            patch.setattr(providers, "TIMEOUT_S", 7.0)
            patch.setattr(providers, "BACKOFF_S", 0.0)
            assert provider.call(payload) == {"ok": 1}
        body = json.dumps(payload).encode()
        assert transport.calls == [(body, {"Content-Type": "application/json"}, 7.0)] * 2

    @pytest.mark.parametrize("request_", [{"temperature": math.nan}, {"t": [math.inf]}, {"s": {1, 2}}])
    def test_request_that_is_not_json_fails_before_any_attempt(self, request_, monkeypatch):
        sleeps = []
        monkeypatch.setattr("doc2table.providers.time.sleep", sleeps.append)
        transport = FakeTransport([reply({"ok": 1})])
        provider = HttpProvider("http://x/chat", transport=transport)
        with pytest.raises(ProviderError, match="cannot be sent as JSON"):
            provider.call(request_)
        assert transport.calls == []
        assert sleeps == []

    def test_holds_its_slot_only_while_posting(self, monkeypatch):
        slots = RequestSlots(1)
        held = []  # ("post" | "sleep", whether the one slot was taken), in order

        def taken() -> bool:
            free = Waiter(slots)
            free.start()
            free.join(0.2)
            return free.is_alive()  # still waiting: the slot is held

        monkeypatch.setattr(
            "doc2table.providers.time.sleep", lambda seconds: held.append(("sleep", taken()))
        )

        class SlotTransport(FakeTransport):
            def post(self, *args):
                held.append(("post", taken()))
                return super().post(*args)

        transport = SlotTransport([reply(status=503), ConnectionError("down"), reply({"ok": 1})])
        provider = HttpProvider("http://x", transport=transport, slots=slots)
        assert provider.call({"q": 1}) == {"ok": 1}
        assert held == [("post", True), ("sleep", False)] * 2 + [("post", True)]
        assert not taken()

    def test_retried_call_leaves_no_reference_cycle(self, schedule):
        transport = FakeTransport([reply(status=503), reply({"ok": 1})])
        schedule(BACKOFF_S=0.0)
        provider = HttpProvider("http://x/chat", transport=transport)
        gc.disable()  # only reference counting can free it
        try:
            assert provider.call({"q": 1}) == {"ok": 1}
            freed = weakref.ref(provider)
            del provider
            assert freed() is None
        finally:
            gc.enable()


class Waiter(threading.Thread):
    """Takes one slot and gives it straight back, noting its ``label`` in ``order``."""

    def __init__(self, slots, order=None, label=None):
        super().__init__(daemon=True)
        self.slots, self.order, self.label = slots, order, label

    def run(self):
        with self.slots:
            if self.order is not None:
                self.order.append(self.label)


class TestRequestSlots:
    def test_a_released_slot_goes_to_the_longest_waiter(self):
        slots = RequestSlots(1)
        order = []
        with slots:
            waiters = []
            for n in range(3):
                waiters.append(Waiter(slots, order, n))
                waiters[-1].start()
                deadline = time.monotonic() + 5
                while len(slots._waiting) <= n and time.monotonic() < deadline:
                    time.sleep(0.001)
        # The releasing thread asks again at once, and queues behind the three.
        with slots:
            order.append("main")
        for waiter in waiters:
            waiter.join(5)
            assert not waiter.is_alive()
        assert order == [0, 1, 2, "main"]

    def test_never_more_holders_than_slots_under_contention(self):
        slots = RequestSlots(2)
        lock = threading.Lock()
        state = {"holders": 0, "most": 0, "done": 0}

        def work():
            for _ in range(300):
                with slots:
                    with lock:
                        state["holders"] += 1
                        state["most"] = max(state["most"], state["holders"])
                    with lock:
                        state["holders"] -= 1
                with lock:
                    state["done"] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            threads = [threading.Thread(target=work, daemon=True) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert state["done"] == 8 * 300
        assert 1 <= state["most"] <= 2
        assert not slots._waiting


class LoopbackServer:
    """An HTTP/1.1 server on 127.0.0.1 that counts the connections it accepts.

    ``replies`` gives the status of each successive request (200 once they
    run out), answered with a JSON object that echoes the request's path.
    ``after_reply`` is what a connection does once it has answered:
    ``"keep"`` it open, or ``"drop"`` it without saying so first.
    ``"hang_up"`` closes each connection before reading a request, and
    ``"stall"`` reads the request and never answers.
    """

    def __init__(self, replies=(), after_reply="keep"):
        self.replies = list(replies)
        self.after_reply = after_reply
        self.connections = 0
        self.paths = []
        self.released = threading.Event()
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def handle(self):
                if server.after_reply == "hang_up":
                    return
                super().handle()

            def do_POST(self):  # noqa: N802 - http.server naming
                self.rfile.read(int(self.headers["Content-Length"]))
                with server.lock:
                    server.paths.append(self.path)
                    status = server.replies.pop(0) if server.replies else 200
                if server.after_reply == "stall":
                    server.released.wait(10)
                    self.close_connection = True
                    return
                data = json.dumps({"path": self.path}).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)
                self.close_connection = server.after_reply == "drop"

            def log_message(self, format, *args):  # noqa: A002 - silence per-request logging
                pass

        class Server(ThreadingHTTPServer):
            def process_request(self, request, client_address):
                server.connections += 1  # accepted on the one serving thread
                super().process_request(request, client_address)

        self.lock = threading.Lock()
        self.httpd = Server(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)

    def url(self, path="/chat") -> str:
        return f"http://127.0.0.1:{self.httpd.server_address[1]}{path}"

    def __enter__(self) -> LoopbackServer:
        self.thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.released.set()
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()


class TestHttpTransportOnLoopback:
    """The default transport against a real socket: connection reuse, reconnects and the retry contract."""

    def test_one_connection_per_thread(self):
        with LoopbackServer() as server:
            provider = HttpProvider(server.url())
            assert [provider.call({"n": n}) for n in range(5)] == [{"path": "/chat"}] * 5
            assert server.connections == 1
            worker = threading.Thread(target=lambda: [provider.call({"n": n}) for n in range(3)])
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
            assert provider.call({"n": 5}) == {"path": "/chat"}
            assert (server.connections, len(server.paths)) == (2, 9)

    def test_dropped_keep_alive_is_reopened_and_resent(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("doc2table.providers.time.sleep", sleeps.append)
        monkeypatch.setattr(providers, "MAX_ATTEMPTS", 1)
        with LoopbackServer(after_reply="drop") as server:
            provider = HttpProvider(server.url())
            for n in range(4):
                assert provider.call({"n": n}) == {"path": "/chat"}
            assert (server.connections, len(server.paths)) == (4, 4)
        assert sleeps == []

    def test_failure_on_a_fresh_connection_is_not_resent(self, schedule):
        schedule(MAX_ATTEMPTS=2, BACKOFF_S=0.0)
        with LoopbackServer(after_reply="hang_up") as server:
            provider = HttpProvider(server.url())
            with pytest.raises(ProviderError, match="2 attempts"):
                provider.call({"q": 1})
            assert server.connections == 2

    def test_503_then_200_succeeds_on_the_second_attempt(self, schedule):
        schedule(BACKOFF_S=0.0)
        with LoopbackServer([503]) as server:
            provider = HttpProvider(server.url())
            assert provider.call({"q": 1}) == {"path": "/chat"}
            assert (len(server.paths), server.connections) == (2, 1)

    def test_404_makes_one_attempt(self):
        with LoopbackServer([404]) as server:
            provider = HttpProvider(server.url())
            with pytest.raises(ProviderError, match="HTTP 404"):
                provider.call({"q": 1})
            assert (len(server.paths), server.connections) == (1, 1)

    def test_server_that_never_replies_times_out_every_attempt(self, schedule):
        schedule(TIMEOUT_S=0.2, MAX_ATTEMPTS=2, BACKOFF_S=0.0)
        with LoopbackServer(after_reply="stall") as server:
            provider = HttpProvider(server.url())
            with pytest.raises(ProviderError, match="2 attempts"):
                provider.call({"q": 1})
            # a timed-out connection is discarded, never reused
            assert (len(server.paths), server.connections) == (2, 2)

    @pytest.mark.parametrize(
        "endpoint",
        [
            "ftp://127.0.0.1/chat",
            "http://127.0.0.1:80x/chat",
            "http:///v1/chat",
            "http://:8080/chat",
            "http://[::1/chat",
        ],
    )
    def test_endpoint_that_no_retry_can_fix_fails_at_once(self, endpoint):
        with pytest.raises(ProviderError, match="endpoint"):
            HttpProvider(endpoint)

    def test_https_endpoint_builds_a_tls_connection_without_connecting(self):
        transport = HttpTransport("https://provider.invalid:8443/v1/chat?x=1")
        assert transport._connect.func is http.client.HTTPSConnection
        assert transport._connect.args == ("provider.invalid", 8443)
        assert isinstance(transport._connect.keywords["context"], ssl.SSLContext)
        assert transport._target == "/v1/chat?x=1"

    def test_query_string_reaches_the_server(self):
        with LoopbackServer() as server:
            provider = HttpProvider(server.url("/v1/chat?key=a%20b&x=1"))
            assert provider.call({}) == {"path": "/v1/chat?key=a%20b&x=1"}
