"""Parsing raw model output back into canonical answers.

Real LLMs rarely answer with a bare "Yes": they qualify, explain, or
prefix with reasoning (especially under Chain-of-Thoughts).  The
parser therefore searches for decisive markers in priority order and
falls back to :data:`Answer.UNPARSEABLE` — which the metrics count as a
miss, exactly how the paper treats non-answers.
"""

from __future__ import annotations

import re

from repro.questions.model import Answer, MCQ_LETTERS, Question, \
    QuestionType, letter_answer

_IDK_MARKERS = (
    "i don't know", "i do not know", "i dont know", "cannot determine",
    "can't determine", "not sure", "unable to determine", "uncertain",
    "cannot answer", "no idea", "insufficient information",
)

# "the answer is yes", "answer: no" style conclusions take priority:
# under CoT the reasoning may mention both yes and no before concluding.
_CONCLUSION_RE = re.compile(
    r"(?:answer\s*(?:is|:)|conclusion\s*(?:is|:))\s*\(?\"?'?"
    r"(yes|no|[a-d])\b", re.IGNORECASE)
_LEADING_RE = re.compile(r"^\W*(yes|no)\b", re.IGNORECASE)
_ANY_YESNO_RE = re.compile(r"\b(yes|no)\b", re.IGNORECASE)
_LETTER_RE = re.compile(r"\b([A-D])\)", )
_BARE_LETTER_RE = re.compile(r"^\W*([A-D])\b")


def _is_idk(lowered: str) -> bool:
    return any(marker in lowered for marker in _IDK_MARKERS)


def parse_true_false(text: str) -> Answer:
    """Parse a Yes/No/I-don't-know response."""
    lowered = text.strip().lower()
    if not lowered:
        return Answer.UNPARSEABLE
    conclusion = _CONCLUSION_RE.search(text)
    if conclusion:
        token = conclusion.group(1).lower()
        if token in ("yes", "no"):
            return Answer.YES if token == "yes" else Answer.NO
    if _is_idk(lowered):
        return Answer.IDK
    leading = _LEADING_RE.match(text)
    if leading:
        return (Answer.YES if leading.group(1).lower() == "yes"
                else Answer.NO)
    anywhere = _ANY_YESNO_RE.search(text)
    if anywhere:
        return (Answer.YES if anywhere.group(1).lower() == "yes"
                else Answer.NO)
    return Answer.UNPARSEABLE


def parse_mcq(text: str, options: tuple[str, ...] = ()) -> Answer:
    """Parse an A-D multiple choice response.

    Falls back to matching the option *text* when no letter is present
    ("The supertype is Stationery.").
    """
    stripped = text.strip()
    if not stripped:
        return Answer.UNPARSEABLE
    conclusion = _CONCLUSION_RE.search(text)
    if conclusion and conclusion.group(1).upper() in MCQ_LETTERS:
        return letter_answer(conclusion.group(1).upper())
    bare = _BARE_LETTER_RE.match(stripped)
    if bare:
        return letter_answer(bare.group(1))
    lettered = _LETTER_RE.search(text)
    if lettered:
        return letter_answer(lettered.group(1))
    lowered = stripped.lower()
    if _is_idk(lowered):
        return Answer.IDK
    for index, option in enumerate(options):
        if option.lower() in lowered:
            return letter_answer(MCQ_LETTERS[index])
    return Answer.UNPARSEABLE


def parse_answer(text: str, question: Question) -> Answer:
    """Parse ``text`` according to the question's template family."""
    if question.qtype is QuestionType.MCQ:
        return parse_mcq(text, question.options)
    return parse_true_false(text)
