"""Golden certificates and oracle witnesses: their output, pinned byte for byte.

tests/data/certificates.jsonl holds one compact synthesize(pair).to_json()
per line, in golden_pairs() order: every edge class at the identity for
n = 3..7, then 24 seeded edge pairs at random vertices for n = 5..7.  A
change that alters any matrix, margin, omega/epsilon or construction step
fails here.

tests/data/oracle_witnesses.jsonl holds one line per identity word class
for n = 3..5, in word_classes order: the oracle's verdict, its separating
matrix and its dual multipliers, so a change to the LP's pivots or to how
its witnesses are read fails here.

After a deliberate change to either output, rebuild both files with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import random
from pathlib import Path
from typing import Optional

from linemetric import HalfLinePair, Perm, SymZMat, Word, classify, synthesize
from linemetric.core import parse_matrix_json, word_classes
from linemetric.oracle import _decide_at_vertex

GOLDEN = Path(__file__).parent / "data" / "certificates.jsonl"
WITNESSES = Path(__file__).parent / "data" / "oracle_witnesses.jsonl"


def golden_pairs() -> list:
    pairs = [
        HalfLinePair(Perm.identity(n), u)
        for n in range(3, 8)
        for u in word_classes(n)
        if classify(HalfLinePair(Perm.identity(n), u)).is_edge
    ]
    rnd = random.Random(12)
    drawn = 0
    while drawn < 24:
        n = rnd.randint(5, 7)
        pi = Perm(rnd.sample(range(1, n + 1), n))
        pair = HalfLinePair(pi, Word.from_set(n, rnd.sample(range(1, n + 1), rnd.randint(1, n - 1))))
        if classify(pair).is_edge:
            pairs.append(pair)
            drawn += 1
    return pairs


def _line(pair) -> str:
    return json.dumps(synthesize(pair).to_json(), separators=(",", ":"))


def _sorted_items(dual) -> Optional[list]:
    if dual is None:
        return None
    return sorted([str(key), str(value)] for key, value in dual.items())


def witness_line(u: Word) -> str:
    """The identity-vertex LP's verdict and witnesses for the word class u."""
    is_edge, mat, dual_perm, dual_cut, dual_target = _decide_at_vertex(Perm.identity(u.n), u)
    record = {
        "word": str(u),
        "is_edge": is_edge,
        "matrix": None if mat is None else mat.to_json(),
        "dual_perm": _sorted_items(dual_perm),
        "dual_cut": _sorted_items(dual_cut),
        "dual_target": None if dual_target is None else str(dual_target),
    }
    return json.dumps(record, separators=(",", ":"))


def witness_words() -> list:
    return [u for n in range(3, 6) for u in word_classes(n)]


def test_golden_certificates():
    lines = GOLDEN.read_text().splitlines()
    pairs = golden_pairs()
    assert len(lines) == len(pairs) == 124
    for pair, line in zip(pairs, lines):
        assert _line(pair) == line, f"certificate changed for {pair.to_json()}"
        matrix = json.loads(line)["matrix"]
        assert SymZMat.of_pairs(*parse_matrix_json(matrix)).to_json() == matrix


def test_golden_oracle_witnesses():
    lines = WITNESSES.read_text().splitlines()
    words = witness_words()
    assert len(lines) == len(words) == 25
    for u, line in zip(words, lines):
        assert witness_line(u) == line, f"oracle witness changed for {u}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(_line(pair) + "\n" for pair in golden_pairs()))
    WITNESSES.write_text("".join(witness_line(u) + "\n" for u in witness_words()))
