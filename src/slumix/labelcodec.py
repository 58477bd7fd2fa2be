"""Serialization between semantic labels and flat target strings.

Canonical grammar (normative EBNF, one line per label):

    target   = "scenario: " value " | action: " value " | entities: " entlist
    entlist  = "[]" | "[" entity { "; " entity } "]"
    entity   = etype ": " filler
    value, etype, filler = one or more characters excluding "|", ";", ":",
                           "[", "]" and newlines

Example: ``scenario: music | action: play | entities: [artist: queen; song:
bohemian rhapsody]``. Labels are normalized when they are built (whitespace
trimmed and collapsed; scenario, action and entity types lowercased; fillers
keep their case), so serialization writes their fields as they are and
parsing builds each label once from the raw field strings. Parsing is
deliberately tolerant (case-insensitive keys, flexible whitespace, trailing
junk ignored, "entity"/"slots" accepted for "entities") because it has to
consume free-form model output.
"""

from __future__ import annotations

import re

from .corpus import UNPARSEABLE, Entity, SemanticLabel, label_fault
from .errors import LabelFormatError


def serialize_label(label: SemanticLabel) -> str:
    """Render the canonical target string for a label."""
    fault = label_fault(label)
    if fault is not None:
        raise LabelFormatError(f"cannot serialize a label that {fault}")
    entities = "; ".join(f"{e.etype}: {e.filler}" for e in label.entities)
    return f"scenario: {label.scenario} | action: {label.action} | entities: [{entities}]"


_KEYS = r"(?:scenario|action|entities|entity|slots)"
# Value runs until a pipe, newline, bracket, or the start of another key.
_VALUE = r"((?:(?!\b%s\s*:)[^|\n\[\]])*)" % _KEYS
_SCENARIO_RE = re.compile(r"\bscenario\s*:\s*" + _VALUE, re.IGNORECASE)
_ACTION_RE = re.compile(r"\baction\s*:\s*" + _VALUE, re.IGNORECASE)
_ENTITIES_RE = re.compile(r"\b(?:entities|entity|slots)\s*:\s*\[", re.IGNORECASE)


def parse_label(text) -> SemanticLabel:
    """Recover a label from raw model output; never raises.

    Accepts ``str`` or ``bytes`` of any content. Returns an
    unparseable-flagged label when no scenario/action can be found, so a bad
    generation scores as fully wrong instead of aborting evaluation.
    """
    try:
        if isinstance(text, (bytes, bytearray)):
            text = bytes(text).decode("utf-8", errors="replace")
        text = str(text)
        m_s = _SCENARIO_RE.search(text)
        m_a = _ACTION_RE.search(text)
        if m_s is None or m_a is None:
            return UNPARSEABLE
        entities = []
        m_e = _ENTITIES_RE.search(text)
        if m_e is not None:
            closing = text.find("]", m_e.end())
            body = text[m_e.end():closing] if closing != -1 else text[m_e.end():]
            for chunk in body.split(";"):
                if ":" not in chunk:
                    continue
                etype, filler = chunk.split(":", 1)
                entity = Entity(etype=etype, filler=filler)
                if entity.etype and entity.filler:
                    entities.append(entity)
        label = SemanticLabel(scenario=m_s.group(1), action=m_a.group(1),
                              entities=tuple(entities))
        return label if label.scenario and label.action else UNPARSEABLE
    except Exception:
        return UNPARSEABLE
