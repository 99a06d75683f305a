"""The README's documented examples run and print what their comments say."""
import contextlib
import io
import pathlib
import re

from intfill.cli import RECORD_FIELDS

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_usage_blocks():
    text = README.read_text()
    section = text.split("## Library usage", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


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
