"""The README's library tour runs and gives the results its comments state.

Claims covered:
    - every statement of the tour's code block runs against the package's
      exports
    - each result the tour's comments name is the value the package returns
"""

import ast
import re
from fractions import Fraction
from pathlib import Path

from linemetric import Perm, Word

README = Path(__file__).resolve().parents[1] / "README.md"

# expression in the tour -> (its value, the start of its comment)
STATED = {
    "(lm.pi, lm.witness)": (
        (Perm([1, 2, 3]), (Fraction(-7, 6), Fraction(-1, 6), Fraction(4, 3))),
        "(Perm([1, 2, 3]), (-7/6, -1/6, 4/3))",
    ),
    "classify(pair).is_edge": (True, "True"),
    "len(enumerate_edges_at(pair.pi))": (11, "11 edge verdicts"),
    'verify_certificate(cert.matrix, pair, "farkas").passed': (True, "True"),
    "oracle_classify(pair).is_edge": (True, "True"),
    "lifted_word(base.word, 1, 1)": (Word.parse("11001"), "Word('11001')"),
}


def tour_source() -> str:
    """The python block under README's '## Library tour' heading."""
    match = re.search(r"^## Library tour\n+```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert match, "README has no library-tour code block"
    return match.group(1)


def run_tour() -> dict:
    """Run the tour statement by statement; {source: (value, comment)} for
    each bare expression."""
    source = tour_source()
    lines = source.splitlines()
    namespace: dict = {}
    shown = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            comment = lines[node.lineno - 1].partition("#")[2].strip()
            shown[ast.get_source_segment(source, node.value)] = (value, comment)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return shown


def test_library_tour_results():
    shown = run_tour()
    for source, (value, stated) in STATED.items():
        got, comment = shown[source]
        assert got == value, source
        assert comment.startswith(stated), source
