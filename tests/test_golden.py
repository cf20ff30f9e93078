"""Golden certificates: synthesize's output, pinned byte for byte.

tests/data/certificates.jsonl holds one compact synthesize(pair).to_json()
per line, in golden_pairs() order: every edge class at the identity for
n = 3..7, then 24 seeded edge pairs at random vertices for n = 5..7.  A
change that alters any matrix, margin, omega/epsilon or construction step
fails here.  After a deliberate change to the output, rebuild the file with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import random
from pathlib import Path

from linemetric import HalfLinePair, Perm, SymZMat, Word, classify, synthesize
from linemetric.core import word_classes

GOLDEN = Path(__file__).parent / "data" / "certificates.jsonl"


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


def test_golden_certificates():
    lines = GOLDEN.read_text().splitlines()
    pairs = golden_pairs()
    assert len(lines) == len(pairs) == 124
    for pair, line in zip(pairs, lines):
        assert _line(pair) == line, f"certificate changed for {pair.to_json()}"
        matrix = json.loads(line)["matrix"]
        assert SymZMat.from_json(matrix).to_json() == matrix


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(_line(pair) + "\n" for pair in golden_pairs()))
