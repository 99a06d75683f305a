"""The README's documented examples run and print what their comments say."""
import contextlib
import io
import pathlib
import re

import numpy as np

from intfill.benchmarks import get_problem
from intfill.cli import RECORD_FIELDS
from intfill.core import BoxDomain, EvalCounter, ObjectiveFunction
from intfill.solver import EVENT_KINDS, solve, solve_problem

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_usage():
    return README.read_text().split("## Library usage", 1)[1].split("\n## ", 1)[0]


def library_usage_blocks():
    return re.findall(r"```python\n(.*?)```", library_usage(), flags=re.S)


def test_library_usage_examples_print_their_commented_results():
    blocks = library_usage_blocks()
    assert len(blocks) == 2
    namespace: dict = {}
    checked = []
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), namespace)
        prints = [line for line in block.splitlines() if line.startswith("print(")]
        printed = out.getvalue().splitlines()
        assert len(printed) == len(prints)
        for line, shown in zip(prints, printed):
            # A comment that starts with "(" states the result; the others
            # describe a value that depends on the run.
            comment = line.partition("#")[2].strip()
            if comment.startswith("("):
                expected = comment.partition(":")[0]
                assert shown == expected, line
                checked.append(expected)
    assert checked == ["(1, 3) 0.0", "(3,)"]


def test_matrix_field_list_is_the_record_fields():
    listed = re.search(r"\(fields:\s*`([^`]*)`\)", README.read_text()).group(1)
    assert tuple(re.split(r",\s*", listed)) == RECORD_FIELDS


def listed_events():
    """Each event kind the README's "Library usage" lists, with its fields."""
    items = re.findall(r"^- `(\w+)` \(([^)]*)\):", library_usage(), flags=re.M)
    return {kind: tuple(re.findall(r"`(\w+)`", fields)) for kind, fields in items}


def test_event_list_is_the_event_kinds_and_their_fields():
    listed = listed_events()
    assert tuple(listed) == EVENT_KINDS
    # Solves that between them log every kind: booth's rounds, a DC2 check
    # on the double well of the second example, and a polish after a
    # budget spent before f(start).
    box = BoxDomain(np.array([-5]), np.array([5]))
    well = lambda x: float((x[0] + 3) ** 2 * (x[0] - 3) ** 2 - x[0])
    reports = [
        solve_problem(get_problem("booth")),
        solve(ObjectiveFunction(well, box, EvalCounter()), np.array([-3])),
        solve(ObjectiveFunction(well, box, EvalCounter(limit=0)), np.array([-3])),
    ]
    logged = {
        (e["kind"], tuple(k for k in e if k not in ("kind", "n_fu", "n_fill")))
        for rep in reports
        for e in rep.events
    }
    assert logged == set(listed.items())
