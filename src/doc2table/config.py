"""Run configuration: provider wiring and the settings a run uses.

:class:`RunConfig` is the only run configuration. ``retrieve``,
``generate`` and ``pipeline`` all load it from one JSON file, and the
stages read their settings from it: the ``chat``, ``rewriter`` and
``embedder`` provider specs, ``k``, ``parallel``, ``oneshot``, ``docs`` and
``questions`` (which only ``retrieve`` and ``pipeline`` read). Every key
must name one of these (chat sampling values are fixed, not set): an
unknown key, at the top level or inside a provider spec, is an error, and
each known value is type-checked. Endpoints come
from the file; a provider's ``api_key_env`` names the environment variable
that holds its credential, so no secret is written into the file, and a
named variable that is unset or empty is an error, not an unauthenticated
run. Relative transcript and input paths resolve against the config file's
directory; the output directory is no setting, as each command takes it
from ``--out``.
Each provider role accepts the modes that the one table
:data:`PROVIDER_MODES` lists for it, and :func:`build_providers` builds
every role the same way from that table. Nothing touches the network unless
a provider's mode is ``live`` or ``record``.

``parallel`` is how many provider requests a run may have in flight at
once. :func:`build_providers` makes one
:class:`~doc2table.providers.RequestSlots` of ``parallel`` slots that every
live role (chat, rewriter and embedder) shares; a request holds
a slot only while it is sent and answered, and a call waiting out a retry
backoff holds none. The run's tasks (each sentence rewrite, each question
rewrite and each question's TabTalk, whose structure and fill calls stay
serial) go through one pool of ``2 * parallel`` threads, a spare per slot,
so another task can take the slot of one that backs off (see
:func:`doc2table.cli.run_map`). Worker threads share each role's backend,
and an HTTP role's backend keeps one connection per worker thread. At
``parallel`` 1 no thread starts.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

from .providers import (
    ChatProvider,
    HashingEmbedder,
    HttpEmbedder,
    HttpProvider,
    RecordingProvider,
    ReplayProvider,
    RequestSlots,
    Rewriter,
    ScriptedProvider,
    Transcript,
    rewrite_to_itself,
)
from .retrieval import DEFAULT_TOP_K

# The modes each provider role accepts, in the order the roles are checked
# and built. ``identity`` and ``hashing`` are the offline modes that need no
# backend; every other mode is a JSON backend wrapped in the role's class.
PROVIDER_MODES = {
    "chat": ("live", "replay", "record"),
    "rewriter": ("identity", "live", "replay", "record"),
    "embedder": ("hashing", "live"),
}


@dataclass
class ProviderSpec:
    mode: str
    endpoint: str = ""
    transcript: str = ""  # path, for replay/record modes
    api_key_env: str = ""


# The JSON types a config value may take, by its field's annotation; true and
# false count as booleans only.
_JSON_TYPES = {
    "str": (str, "a string"),
    "bool": (bool, "true or false"),
    "int": (int, "an integer"),
    "ProviderSpec": (dict, "an object"),
}


def _json_fields(cls, obj, prefix: str = "") -> dict:
    """The type-checked values of JSON object ``obj``; each key must name a field of ``cls``."""
    if not isinstance(obj, dict):
        raise ValueError("config must be a JSON object")
    unknown = sorted(set(obj) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"config field {prefix}{unknown[0]} is not a setting")
    values = {}
    for f in fields(cls):
        if f.name in obj:
            value = obj[f.name]
            types, kind = _JSON_TYPES[f.type]
            if not isinstance(value, types) or isinstance(value, bool) != (f.type == "bool"):
                raise ValueError(f"config field {prefix}{f.name} must be {kind}, got {value!r}")
            values[f.name] = value
    return values


@dataclass
class RunConfig:
    chat: ProviderSpec = field(default_factory=lambda: ProviderSpec("replay"))
    rewriter: ProviderSpec = field(default_factory=lambda: ProviderSpec("identity"))
    embedder: ProviderSpec = field(default_factory=lambda: ProviderSpec("hashing"))
    k: int = DEFAULT_TOP_K
    parallel: int = 1  # provider requests in flight at once; 1 starts no thread
    oneshot: bool = False
    docs: str = ""  # run inputs
    questions: str = ""

    def validate(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.parallel < 1:
            raise ValueError(f"parallel must be >= 1, got {self.parallel}")
        for role, modes in PROVIDER_MODES.items():
            mode = getattr(self, role).mode
            if mode not in modes:
                raise ValueError(f"{role} mode must be one of {modes}, got {mode!r}")

    @classmethod
    def from_file(cls, path: str | Path) -> RunConfig:
        path = Path(path)
        try:
            obj = json.loads(path.read_text(encoding="utf-8"))
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None
        values = _json_fields(cls, obj)
        for role in PROVIDER_MODES:
            if role in values:
                spec = _json_fields(ProviderSpec, values[role], f"{role}.")
                values[role] = ProviderSpec(**{"mode": "", **spec})
        config = cls(**values)
        paths = [(config, "docs"), (config, "questions")]
        paths += [(getattr(config, role), "transcript") for role in PROVIDER_MODES]
        for owner, name in paths:
            value = getattr(owner, name)
            if value and not Path(value).is_absolute():
                setattr(owner, name, str(path.parent / value))
        config.validate()
        return config


@dataclass
class BuiltProviders:
    """Ready-to-call providers plus the transcripts a run records, with their save paths."""

    chat: ChatProvider | None
    rewriter: Rewriter | None
    embedder: object
    pending_transcripts: list[tuple[Transcript, str]]


def _backend_for(
    role: str, spec: ProviderSpec, pending: list[tuple[Transcript, str]], slots: RequestSlots
):
    """The JSON backend of a replay, live or record spec, the modes left once validated.

    A live or record backend sends through the run's request ``slots``, and
    only with the credential its ``api_key_env`` names, if it names one.
    """
    if spec.mode == "replay":
        if not spec.transcript:
            raise ValueError("replay mode needs a transcript path")
        return ReplayProvider(Transcript.load(spec.transcript))
    if not spec.endpoint:
        raise ValueError(f"{spec.mode} mode needs an endpoint")
    api_key = os.environ.get(spec.api_key_env) if spec.api_key_env else None
    if spec.api_key_env and not api_key:
        raise ValueError(f"{role}.api_key_env names {spec.api_key_env}, which is unset or empty")
    backend = HttpProvider(spec.endpoint, api_key=api_key, slots=slots)
    if spec.mode == "live":
        return backend
    if not spec.transcript:
        raise ValueError("record mode needs a transcript path to write")
    transcript = Transcript()
    pending.append((transcript, spec.transcript))
    return RecordingProvider(backend, transcript)


def build_providers(config: RunConfig, roles: tuple[str, ...]) -> BuiltProviders:
    """The providers of ``roles``; the live ones share ``config.parallel`` request slots."""
    pending: list[tuple[Transcript, str]] = []
    slots = RequestSlots(config.parallel)
    # how each role wraps a JSON backend
    wrappers = {"chat": ChatProvider, "rewriter": Rewriter, "embedder": HttpEmbedder}
    built = dict.fromkeys(PROVIDER_MODES)
    for role in PROVIDER_MODES:
        if role not in roles:
            continue
        spec = getattr(config, role)
        if spec.mode == "identity":
            built[role] = Rewriter(ScriptedProvider(rewrite_to_itself))
        elif spec.mode == "hashing":
            built[role] = HashingEmbedder()
        else:
            built[role] = wrappers[role](_backend_for(role, spec, pending, slots))
    return BuiltProviders(**built, pending_transcripts=pending)
