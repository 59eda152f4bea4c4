"""Wrappers the benchmark's child process puts around doc2table's public functions.

Nothing under ``src/`` is edited: each function is rebound, in every
loaded ``doc2table.*`` module that holds it (``cli`` imports by name), to a
wrapper. Methods are rebound on their class.

Two modes:

* untraced: only the provider role methods get counting wrappers, which
  read no clock, plus a one-shot marker that notes when the first item
  starts and then unwraps itself. End-to-end metrics come from this mode.
* traced: every function in ``TRACED`` records a span (name, start, end,
  parent, item id) in memory, and hooks count work at the same boundary.
  Spans started on a worker thread with no open span of its own are
  children of the main thread's innermost open span: the only threads the
  program starts are the pool workers ``run_tabtalk`` waits on.
"""
from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

TRACED = [
    "providers.ChatProvider.complete",
    "providers.Rewriter.rewrite",
    "providers.HashingEmbedder.embed",
    "providers.HttpEmbedder.embed",
    "providers.ReplayProvider.call",
    "providers.HttpProvider.call",
    "config.build_providers",
    "retrieval.rewrite_question",
    "retrieval.rewrite_sentences",
    "retrieval.retrieve_top_k",
    "generation.run_tabtalk",
    "metrics.table_scores",
    "metrics.content_similarity",
    "metrics.header_similarity",
    "metrics.chrf",
    "treedist.teds",
    "html_io.parse_html_table",
    "html_io.serialize_html",
    "model.flatten_to_kv",
    "annotate.match_cells_to_sentences",
    "data.read_jsonl",
    "data.read_documents",
    "data.read_tables",
    "data.read_triples",
    "data.read_review",
    "data.read_retrieval_records",
    "data.read_generated_tables",
    "data.write_json",
    "data.write_jsonl",
    "data.atomic_write_text",
]
COUNTED = [
    "providers.ChatProvider.complete",
    "providers.Rewriter.rewrite",
    "providers.HashingEmbedder.embed",
    "providers.HttpEmbedder.embed",
]
# The first call to any of these starts the first item; set-up ends there.
FIRST_ITEM = [
    "retrieval.rewrite_sentences",
    "retrieval.rewrite_question",
    "retrieval.retrieve_top_k",
    "generation.run_tabtalk",
    "metrics.table_scores",
    "annotate.match_cells_to_sentences",
]
READS = {name for name in TRACED if name.startswith("data.read_")}
WRITES = {"data.write_json", "data.write_jsonl", "data.atomic_write_text"}


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _chat(counts, args, kwargs, result, exc):
    counts["chat_calls"] += 1
    messages = _arg(args, kwargs, 1, "messages") or []
    counts["chat_chars"] += sum(len(m.get("content", "")) for m in messages)


def _rewrite(counts, args, kwargs, result, exc):
    counts["rewrite_calls"] += 1
    if _arg(args, kwargs, 1, "mode") == "sentence" and (exc or not result or not result[0].strip()):
        counts["degraded_rewrites"] += 1


def _embed(counts, args, kwargs, result, exc):
    counts["embed_calls"] += 1
    counts["embed_texts"] += len(_arg(args, kwargs, 1, "texts"))


def _replay(counts, args, kwargs, result, exc):
    if type(exc).__name__ == "ReplayMissError":
        counts["replay_misses"] += 1


def _rewrite_question(counts, args, kwargs, result, exc):
    if result is not None and result.degraded:
        counts["degraded_rewrites"] += 1


def _retrieve(counts, args, kwargs, result, exc):
    store, subs = _arg(args, kwargs, 0, "store"), _arg(args, kwargs, 1, "sub_questions")
    counts["sentences_scored"] += len(store) * len(subs)


def _tabtalk(counts, args, kwargs, result, exc):
    counts["tabtalk_calls"] += 1
    if type(exc).__name__ == "StageFailure":
        counts["stage_failures"] += 1
    if result is not None:
        retries = result.structure_retries + result.fill_retries
        counts["retries"] += retries
        counts["first_try"] += retries == 0
        counts["unfilled_cells"] += len(result.trace.unfilled)


def _match(counts, args, kwargs, result, exc):
    counts["sentences_scanned"] += len(_arg(args, kwargs, 1, "store"))


def _write(counts, args, kwargs, result, exc):
    counts["bytes_written"] += len(_arg(args, kwargs, 1, "text").encode("utf-8"))


HOOKS = {
    "providers.ChatProvider.complete": _chat,
    "providers.Rewriter.rewrite": _rewrite,
    "providers.HashingEmbedder.embed": _embed,
    "providers.HttpEmbedder.embed": _embed,
    "providers.ReplayProvider.call": _replay,
    "retrieval.rewrite_question": _rewrite_question,
    "retrieval.retrieve_top_k": _retrieve,
    "generation.run_tabtalk": _tabtalk,
    "annotate.match_cells_to_sentences": _match,
    "data.atomic_write_text": _write,
}
# Where the item a span belongs to can be read from the call.
ITEM_OF = {
    "retrieval.rewrite_question": (0, "question"),
    "retrieval.retrieve_top_k": (5, "question"),
    "generation.run_tabtalk": (0, "question"),
}
ORDINAL_ITEMS = {"metrics.table_scores", "annotate.match_cells_to_sentences"}


def rebind(qualified: str, make_wrapper) -> bool:
    """Replace ``doc2table.<module>.<attr>`` everywhere it is bound; False if absent."""
    module_name, _, attr = qualified.partition(".")
    module = sys.modules.get(f"doc2table.{module_name}")
    if module is None:
        return False
    owner_name, _, name = attr.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name, None)
        if owner is None or name not in vars(owner):
            return False
        setattr(owner, name, make_wrapper(vars(owner)[name]))
        return True
    original = getattr(module, name, None)
    if original is None:
        return False
    wrapper = make_wrapper(original)
    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").partition(".")[0] != "doc2table":
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, wrapper)
    return True


class Probe:
    def __init__(self, trace: bool, item_ids: dict[str, str] | None = None):
        self.trace = trace
        self.item_ids = item_ids or {}
        self.counts: Counter = Counter()
        self.spans: list[list] = []  # [id, name, start, end, parent id, item]
        self.first_item_at: float | None = None  # perf_counter() at the first item
        self._ids = itertools.count()
        self._ordinals: Counter = Counter()
        self._local = threading.local()
        self._main_stack: list[list] = []
        self._unmarked: list[tuple[str, object]] = []

    def install(self) -> None:
        for name in TRACED if self.trace else COUNTED:
            rebind(name, lambda fn, name=name: self._wrap(name, fn))
        # Outermost, so that unwrapping a marker restores the wrapper under it.
        for name in FIRST_ITEM:
            rebind(name, lambda fn, name=name: self._marker(name, fn))

    def _marker(self, name: str, fn):
        def first_item(*args, **kwargs):
            if self.first_item_at is None:
                self.first_item_at = time.perf_counter()
                for marked, original in self._unmarked:
                    rebind(marked, lambda _wrapper, original=original: original)
            return fn(*args, **kwargs)

        self._unmarked.append((name, fn))
        return first_item

    def _stack(self) -> list[list]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        counts = self.counts
        if not self.trace:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(counts, args, kwargs, result, None)
                return result

            return counted

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span = [next(self._ids), name, 0.0, 0.0, parent[0] if parent else None,
                    self._item(name, args, kwargs, parent)]
            self.spans.append(span)
            stack.append(span)
            result = exc = None
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                if hook is not None:
                    hook(counts, args, kwargs, result, exc)

        return traced

    def _item(self, name: str, args, kwargs, parent):
        if name in ITEM_OF:
            text = _arg(args, kwargs, *ITEM_OF[name])
            return self.item_ids.get(text, text)
        if name in ORDINAL_ITEMS:
            self._ordinals[name] += 1
            return f"{name}#{self._ordinals[name]}"
        return parent[5] if parent else None

    def root(self, fn):
        """Trace the whole CLI call as the root span ``cli.main``."""
        return self._wrap("cli.main", fn) if self.trace else fn

    def write_spans(self, path: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "item")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")

    # -- per-layer metrics ---------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus the union of child intervals."""
        children = defaultdict(list)
        for span in self.spans:
            if span[4] is not None:
                children[span[4]].append((span[2], span[3]))
        out: Counter = Counter()
        for span in self.spans:
            covered, reach = 0.0, span[2]
            for start, end in sorted(children.get(span[0], ())):
                start, end = max(start, reach), min(end, span[3])
                if end > start:
                    covered += end - start
                    reach = end
            out[span[1]] += span[3] - span[2] - covered
        return dict(out)

    def layer_metrics(self) -> dict[str, float]:
        names = {span[0]: span[1] for span in self.spans}
        total: Counter = Counter()
        outermost: Counter = Counter()  # data I/O spans not nested in another of their kind
        for span in self.spans:
            duration = span[3] - span[2]
            total[span[1]] += duration
            for kind, group in (("read", READS), ("write", WRITES)):
                if span[1] in group and names.get(span[4]) not in group:
                    outermost[kind] += duration
        selfs = self.self_times()
        c = self.counts
        return {
            "providers.embed_s": total["providers.HashingEmbedder.embed"] + total["providers.HttpEmbedder.embed"],
            "providers.embed_texts": c["embed_texts"],
            "providers.replay_lookup_s": total["providers.ReplayProvider.call"],
            "providers.chat_wait_s": total["providers.ChatProvider.complete"],
            "providers.rewrite_wait_s": total["providers.Rewriter.rewrite"],
            "providers.chat_calls": c["chat_calls"],
            "providers.rewrite_calls": c["rewrite_calls"],
            "providers.replay_misses": c["replay_misses"],
            "retrieval.retrieve_top_k_self_s": selfs.get("retrieval.retrieve_top_k", 0.0),
            "retrieval.sentences_scored": c["sentences_scored"],
            "retrieval.rewrite_sentences_self_s": selfs.get("retrieval.rewrite_sentences", 0.0),
            "retrieval.degraded_rewrites": c["degraded_rewrites"],
            "generation.run_tabtalk_self_s": selfs.get("generation.run_tabtalk", 0.0),
            "generation.retries": c["retries"],
            "generation.first_try_ratio": c["first_try"] / c["tabtalk_calls"] if c["tabtalk_calls"] else 0.0,
            "generation.unfilled_cells": c["unfilled_cells"],
            "generation.stage_failures": c["stage_failures"],
            "metrics.content_similarity_s": total["metrics.content_similarity"],
            "metrics.chrf_calls": sum(1 for span in self.spans if span[1] == "metrics.chrf"),
            "metrics.chrf_s": total["metrics.chrf"],
            "metrics.table_scores_s": total["metrics.table_scores"],
            "metrics.header_similarity_s": total["metrics.header_similarity"],
            "treedist.teds_s": total["treedist.teds"],
            "html_io.parse_s": total["html_io.parse_html_table"],
            "html_io.serialize_s": total["html_io.serialize_html"],
            "model.flatten_to_kv_s": total["model.flatten_to_kv"],
            "annotate.match_s": total["annotate.match_cells_to_sentences"],
            "annotate.sentences_scanned": c["sentences_scanned"],
            "data.read_s": outermost["read"],
            "data.write_s": outermost["write"],
            "data.bytes_written": c["bytes_written"],
            "config.build_providers_s": total["config.build_providers"],
            "cli.self_s": selfs.get("cli.main", 0.0),
        }
