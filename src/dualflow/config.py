"""Run configuration: one INI file mirroring every dataclass knob.

Unknown sections or keys are rejected rather than ignored, so a typo cannot
silently fall back to a default. Rendering is deterministic: fixed section
and key order, ``repr``-style floats.
"""

from __future__ import annotations

import configparser
import dataclasses
import typing
from dataclasses import dataclass

from .attention import DualAttnConfig
from .encoder import EncoderConfig, PatchEmbedConfig
from .errors import ContractError
from .flow import FlowConfig
from .pipeline import TrainConfig
from .scoring import ScoringConfig


@dataclass(frozen=True)
class RunConfig:
    encoder: EncoderConfig
    patch_embed: PatchEmbedConfig
    attention: DualAttnConfig
    flow: FlowConfig
    train: TrainConfig
    scoring: ScoringConfig


def default_run_config() -> RunConfig:
    return RunConfig(encoder=EncoderConfig(), patch_embed=PatchEmbedConfig(),
                     attention=DualAttnConfig(), flow=FlowConfig(),
                     train=TrainConfig(), scoring=ScoringConfig())


def _int_tuple(text: str) -> tuple:
    return tuple(int(part) for part in text.split(","))


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


# section (a RunConfig field name) -> key -> parser, read from the section's
# dataclass: its fields in order, parsed by their annotated type.
# attention.token_dim is no key: it always mirrors patch_embed.token_dim.
_PARSERS = {int: int, float: float, str: str, tuple: _int_tuple}
_SCHEMA = {section: {f.name: _PARSERS[typing.get_type_hints(cls)[f.name]]
                     for f in dataclasses.fields(cls)
                     if (section, f.name) != ("attention", "token_dim")}
           for section, cls in typing.get_type_hints(RunConfig).items()}


def _section_values(rc: RunConfig, section: str) -> dict:
    sub = getattr(rc, section)
    return {key: getattr(sub, key) for key in _SCHEMA[section]}


def render_run_config(rc: RunConfig) -> str:
    lines = []
    for section in _SCHEMA:
        lines.append(f"[{section}]")
        for key, value in _section_values(rc, section).items():
            lines.append(f"{key} = {_fmt(value)}")
        lines.append("")
    return "\n".join(lines)


def parse_run_config(text: str) -> RunConfig:
    """Config from INI text; omitted keys keep their defaults, unknown keys
    are contract errors. The attention token width always mirrors
    ``patch_embed.token_dim``."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ContractError(f"malformed config: {exc}") from exc
    values = {section: {} for section in _SCHEMA}
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ContractError(f"unknown config section [{section}]")
        for key, raw in cp.items(section):
            if key not in _SCHEMA[section]:
                raise ContractError(f"unknown config key {section}.{key}")
            try:
                values[section][key] = _SCHEMA[section][key](raw)
            except ValueError as exc:
                raise ContractError(f"bad value for {section}.{key}: {raw!r}") from exc
    enc = EncoderConfig(**values["encoder"])
    emb = PatchEmbedConfig(**values["patch_embed"])
    attn = DualAttnConfig(token_dim=emb.token_dim, **values["attention"])
    flow = FlowConfig(**values["flow"])
    train = TrainConfig(**values["train"])
    scoring = ScoringConfig(**values["scoring"])
    return RunConfig(encoder=enc, patch_embed=emb, attention=attn, flow=flow,
                     train=train, scoring=scoring)


def load_run_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_run_config(fh.read())


def apply_overrides(rc: RunConfig, pairs) -> RunConfig:
    """Apply ``section.key=value`` strings on top of a config."""
    updates: dict[str, dict] = {}
    for pair in pairs:
        if "=" not in pair or "." not in pair.split("=", 1)[0]:
            raise ContractError(f"override must look like section.key=value, got {pair!r}")
        dotted, raw = pair.split("=", 1)
        section, key = dotted.strip().split(".", 1)
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ContractError(f"unknown config key {section}.{key}")
        try:
            updates.setdefault(section, {})[key] = _SCHEMA[section][key](raw.strip())
        except ValueError as exc:
            raise ContractError(f"bad value for {section}.{key}: {raw!r}") from exc
    for section, kv in updates.items():
        sub = dataclasses.replace(getattr(rc, section), **kv)
        rc = dataclasses.replace(rc, **{section: sub})
    if "patch_embed" in updates:
        attn = dataclasses.replace(rc.attention, token_dim=rc.patch_embed.token_dim)
        rc = dataclasses.replace(rc, attention=attn)
    return rc
