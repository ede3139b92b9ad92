"""Run configuration: one INI file mirroring every dataclass knob.

Unknown sections (``[DEFAULT]`` among them) or keys are rejected rather
than ignored, so a typo cannot silently fall back to a default. File keys
and ``section.key=value`` overrides go through one parser, in any order.
Rendering is deterministic: fixed section and key order, ``repr``-style
floats.
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
_PARSERS = {int: int, float: float, str: str, tuple: _int_tuple}
_SCHEMA = {section: {name: _PARSERS[typing.get_origin(hint) or hint]
                     for name, hint in typing.get_type_hints(cls).items()}
           for section, cls in typing.get_type_hints(RunConfig).items()}


def render_run_config(rc: RunConfig) -> str:
    lines = []
    for section, keys in _SCHEMA.items():
        sub = getattr(rc, section)
        lines += [f"[{section}]", *(f"{key} = {_fmt(getattr(sub, key))}" for key in keys), ""]
    return "\n".join(lines)


def _with_values(rc: RunConfig, items) -> RunConfig:
    """``rc`` with raw (section, key, raw) values applied, in any order: the
    one path of the INI reader and of ``--set``. Each section is built, and
    so validated, once."""
    updates = {section: {} for section in _SCHEMA}
    for section, key, raw in items:
        if key not in _SCHEMA.get(section, ()):
            raise ContractError(f"unknown config key {section}.{key}")
        try:
            updates[section][key] = _SCHEMA[section][key](raw.strip())
        except ValueError as exc:
            raise ContractError(f"bad value for {section}.{key}: {raw!r}") from exc
    return RunConfig(**{section: dataclasses.replace(getattr(rc, section), **kv)
                        for section, kv in updates.items()})


def parse_run_config(text: str) -> RunConfig:
    """Config from INI text; omitted keys keep their defaults, unknown
    sections (``[DEFAULT]`` too) and keys are contract errors."""
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    cp.optionxform = str  # keys keep their case, as in ``--set``
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ContractError(f"malformed config: {exc}") from exc
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ContractError(f"unknown config section [{section}]")
    return _with_values(default_run_config(), ((section, key, raw) for section in cp.sections()
                                               for key, raw in cp.items(section)))


def load_run_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_run_config(fh.read())


def apply_overrides(rc: RunConfig, pairs) -> RunConfig:
    """Apply ``section.key=value`` strings on top of a config."""
    items = []
    for pair in pairs:
        if "=" not in pair or "." not in pair.split("=", 1)[0]:
            raise ContractError(f"override must look like section.key=value, got {pair!r}")
        dotted, raw = pair.split("=", 1)
        items.append((*dotted.strip().split(".", 1), raw))
    return _with_values(rc, items)
