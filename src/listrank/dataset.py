"""Ranking data: CTR-to-grade conversion, synthetic data and dataset files.

Grades are integers 0..4. CTR grading is done in exact rational arithmetic
(clicks/impressions are counts), so ceil() never suffers float rounding and
scaling a query's counts by a common factor provably cannot change a grade.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import EmptyInputError, ParseError, ValidationError, check_field_types
from .fileio import atomic_write

GRADE_MAX = 4


@dataclass(frozen=True)
class ClickRecord:
    """Aggregated engagement for one (query, document) pair."""

    query_id: str
    doc_id: str
    clicks: int
    impressions: int

    def __post_init__(self):
        if self.clicks < 0 or self.impressions < 0:
            raise ValidationError(
                f"clicks/impressions must be non-negative ({self.query_id}, {self.doc_id})"
            )
        if self.clicks > self.impressions:
            raise ValidationError(
                f"clicks ({self.clicks}) exceed impressions ({self.impressions}) "
                f"for ({self.query_id}, {self.doc_id})"
            )


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str

    def __post_init__(self):
        if not self.doc_id:
            raise ValidationError("doc_id must be non-empty")
        if not valid_doc_ids([self.doc_id]):
            raise ValidationError(f"doc_id {self.doc_id!r} must be a string without a comma or a line break")


def valid_doc_ids(doc_ids: list) -> bool:
    """Whether every id is a non-empty string with no comma and no line break
    (any character ``str.splitlines`` breaks at), so ``rank`` prints it as one
    CSV field and ``--candidates`` can name it. Checked joined, in a few scans."""
    try:
        joined = "".join(doc_ids)
    except TypeError:  # an id that is not a string
        return False
    return all(doc_ids) and "," not in joined and (not joined or joined.splitlines() == [joined])


@dataclass
class QueryGroup:
    """One query with its candidate documents and aligned grades."""

    query_id: str
    query_text: str
    docs: list[Document]
    grades: list[int]

    def __post_init__(self):
        if len(self.docs) != len(self.grades):
            raise ValidationError(
                f"group {self.query_id}: {len(self.docs)} docs vs {len(self.grades)} grades"
            )
        if not self.docs:
            raise EmptyInputError(f"group {self.query_id} has no documents")
        for g in self.grades:
            _check_grade(g, self.query_id)


@dataclass
class Dataset:
    groups: list[QueryGroup] = field(default_factory=list)

    def __post_init__(self):
        _refuse_duplicates([group.query_id for group in self.groups], "query ids")


def _refuse_duplicates(ids, what: str) -> None:
    """Refuse ``ids`` if any repeats, naming every repeated id, sorted."""
    if len(set(ids)) != len(ids):
        dupes = sorted(d for d, n in Counter(ids).items() if n > 1)
        raise ValidationError(f"duplicate {what}: {dupes}")


def _check_grade(grade: int, context: str) -> None:
    if not isinstance(grade, int) or isinstance(grade, bool) or not 0 <= grade <= GRADE_MAX:
        raise ValidationError(f"grade {grade!r} outside [0, {GRADE_MAX}] in {context}")


# -- CTR grading ------------------------------------------------------------


def _ctr(record: ClickRecord) -> Fraction:
    if record.impressions == 0:
        return Fraction(0)
    return Fraction(record.clicks, record.impressions)


def grade_from_ctr(records: list[ClickRecord], min_impressions: int) -> list[int]:
    """Grades via ceil(4 * ctr / max ctr) over one query's records.

    Records with fewer than ``min_impressions`` impressions are dropped before
    grading; the returned list aligns with the surviving records in input
    order. If every surviving CTR is zero, every grade is zero.
    """
    if records and len({r.query_id for r in records}) > 1:
        raise ValidationError("grade_from_ctr expects records of a single query")
    surviving = [r for r in records if r.impressions >= min_impressions]
    if not surviving:
        raise EmptyInputError("no records left after the impression filter")
    ctrs = [_ctr(r) for r in surviving]
    max_ctr = max(ctrs)
    if max_ctr == 0:
        return [0] * len(surviving)
    return [math.ceil(GRADE_MAX * ctr / max_ctr) for ctr in ctrs]


# -- synthetic data ---------------------------------------------------------

#: Largest spec: the words are drawn until that many are distinct (70² + 70³ + 70⁴ exist), and all docs stay in memory.
_MAX_ATTRIBUTE_VOCAB = 100_000
_MAX_DOCS = 1_000_000


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the synthetic faceted-product generator."""

    n_queries: int
    list_size: int = 30
    attribute_vocab_size: int = 120
    query_token_count: int = 4
    noise_std: float = 0.2
    seed: int = 0

    def __post_init__(self):
        check_field_types(self, ValidationError)
        if self.n_queries < 1:
            raise ValidationError(f"n_queries must be >= 1, got {self.n_queries}")
        if self.list_size < 1:
            raise ValidationError(f"list_size must be >= 1, got {self.list_size}")
        if self.n_queries * self.list_size > _MAX_DOCS:
            raise ValidationError(f"n_queries * list_size must be at most {_MAX_DOCS} documents")
        if self.query_token_count < 1:
            raise ValidationError("query_token_count must be >= 1")
        if self.attribute_vocab_size < 2 * self.query_token_count:
            raise ValidationError(
                "attribute_vocab_size must be at least twice query_token_count "
                "so every facet has a non-matching alternative"
            )
        if self.attribute_vocab_size > _MAX_ATTRIBUTE_VOCAB:
            raise ValidationError(f"attribute_vocab_size must be at most {_MAX_ATTRIBUTE_VOCAB}")
        if not 0 <= self.noise_std < math.inf:
            raise ValidationError(f"noise_std must be non-negative and finite, got {self.noise_std}")
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")


_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]


def attribute_vocabulary(size: int, n_groups: int) -> list[list[str]]:
    """Pronounceable attribute words partitioned into facet groups.

    Depends only on (size, n_groups) so separately generated train/test files
    share one vocabulary.
    """
    rng = np.random.default_rng([7340, size, n_groups])
    words: list[str] = []
    seen = set()
    while len(words) < size:
        n_syll = int(rng.integers(2, 5))
        word = "".join(_SYLLABLES[int(i)] for i in rng.integers(0, len(_SYLLABLES), n_syll))
        if word not in seen:
            seen.add(word)
            words.append(word)
    groups: list[list[str]] = [[] for _ in range(n_groups)]
    for i, word in enumerate(words):
        groups[i % n_groups].append(word)
    return groups


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Faceted products with known ground truth.

    A query names one desired attribute word per facet; each document carries
    one word per facet in facet order. The true grade is
    round(4 * matched_facets / facet_count), optionally perturbed by Gaussian
    noise before rounding, clipped to [0, 4]. Pure function of the spec.
    """
    n_facets = spec.query_token_count
    facets = attribute_vocabulary(spec.attribute_vocab_size, n_facets)
    groups = []
    for qi in range(spec.n_queries):
        rng = np.random.default_rng([spec.seed, 1550, qi])
        query_choice = [int(rng.integers(0, len(facets[f]))) for f in range(n_facets)]
        query_tokens = [facets[f][query_choice[f]] for f in range(n_facets)]
        docs = []
        grades = []
        for dj in range(spec.list_size):
            overlap = int(rng.integers(0, n_facets + 1))
            matched = set(int(f) for f in rng.choice(n_facets, size=overlap, replace=False))
            tokens = []
            for f in range(n_facets):
                if f in matched:
                    tokens.append(query_tokens[f])
                else:
                    alt = int(rng.integers(0, len(facets[f]) - 1))
                    if alt >= query_choice[f]:
                        alt += 1
                    tokens.append(facets[f][alt])
            raw = GRADE_MAX * overlap / n_facets
            if spec.noise_std > 0:
                raw += rng.normal(0.0, spec.noise_std)
            grade = math.floor(min(GRADE_MAX, max(0.0, raw)) + 0.5)
            docs.append(Document(doc_id=f"q{qi:05d}_d{dj:02d}", text=" ".join(tokens)))
            grades.append(grade)
        groups.append(
            QueryGroup(
                query_id=f"q{qi:05d}",
                query_text=" ".join(query_tokens),
                docs=docs,
                grades=grades,
            )
        )
    return Dataset(groups=groups)


def corpus_lines(dataset: Dataset) -> list[str]:
    """Pre-training corpus: every query text and document text, in dataset order."""
    lines = []
    for group in dataset.groups:
        lines.append(group.query_text)
        lines.extend(doc.text for doc in group.docs)
    return lines


# -- file I/O ---------------------------------------------------------------


def save_dataset(dataset: Dataset, path) -> None:
    """One query group per line; grades always stored as integers."""
    lines = []
    for group in dataset.groups:
        record = {
            "query_id": group.query_id,
            "query": group.query_text,
            "docs": [
                {"doc_id": doc.doc_id, "text": doc.text, "grade": grade}
                for doc, grade in zip(group.docs, group.grades)
            ],
        }
        lines.append(json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n")
    atomic_write(path, "".join(lines).encode("utf-8"))


def _check_strings(obj: dict, keys, line_no: int) -> None:
    for key in keys:
        if not isinstance(obj[key], str):
            raise ParseError(f"{key!r} must be a string, got {obj[key]!r}", line_no)


def _parse_group(obj: dict, line_no: int) -> QueryGroup:
    for key in ("query_id", "query", "docs"):
        if key not in obj:
            raise ParseError(f"missing field {key!r}", line_no)
    _check_strings(obj, ("query_id", "query"), line_no)
    if not isinstance(obj["docs"], list) or not obj["docs"]:
        raise ParseError("'docs' must be a non-empty array", line_no)
    docs, grades, clicks = [], [], []
    for entry in obj["docs"]:
        if not isinstance(entry, dict) or "doc_id" not in entry or "text" not in entry:
            raise ParseError("each doc needs 'doc_id' and 'text'", line_no)
        _check_strings(entry, ("doc_id", "text"), line_no)
        try:
            docs.append(Document(doc_id=entry["doc_id"], text=entry["text"]))
            if "grade" in entry:
                _check_grade(entry["grade"], f"doc {entry['doc_id']!r}")
                grades.append(entry["grade"])
            elif "clicks" in entry and "impressions" in entry:
                for key in ("clicks", "impressions"):
                    if not isinstance(entry[key], int) or isinstance(entry[key], bool):
                        raise ParseError(f"{key!r} must be an integer, got {entry[key]!r}", line_no)
                clicks.append(ClickRecord(obj["query_id"], entry["doc_id"], entry["clicks"], entry["impressions"]))
            else:
                raise ParseError("doc needs either 'grade' or both 'clicks'/'impressions'", line_no)
        except ValidationError as exc:
            raise ParseError(str(exc), line_no) from exc
    if grades and clicks:
        raise ParseError("cannot mix 'grade' docs with 'clicks'/'impressions' docs in one group", line_no)
    if clicks:
        grades = grade_from_ctr(clicks, min_impressions=0)
    return QueryGroup(query_id=obj["query_id"], query_text=obj["query"], docs=docs, grades=grades)


def load_dataset(path) -> Dataset:
    # split at \n, \r and \r\n as text mode does, but decode per line so bad UTF-8 names its line
    with open(path, "rb") as fh:
        raw_lines = fh.read().splitlines()
    groups, first_line = [], {}
    for line_no, raw in enumerate(raw_lines, start=1):
        try:
            line = raw.decode("utf-8")
            if not line.strip():
                continue
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", line_no) from exc
        except (UnicodeDecodeError, RecursionError) as exc:  # not UTF-8, or nested past the recursion limit
            raise ParseError(f"invalid JSON: {exc}", line_no) from exc
        if not isinstance(obj, dict):
            raise ParseError("each line must be a JSON object", line_no)
        group = _parse_group(obj, line_no)
        if group.query_id in first_line:
            raise ParseError(f"query id {group.query_id!r} repeats line {first_line[group.query_id]}", line_no)
        first_line[group.query_id] = line_no
        groups.append(group)
    return Dataset(groups=groups)


def split_dataset(dataset: Dataset, first_count: int) -> tuple[Dataset, Dataset]:
    """Split into the first ``first_count`` groups and the rest."""
    if not 0 <= first_count <= len(dataset.groups):
        raise ValidationError(
            f"cannot take {first_count} groups from a dataset of {len(dataset.groups)}"
        )
    return Dataset(groups=list(dataset.groups[:first_count])), Dataset(
        groups=list(dataset.groups[first_count:])
    )
