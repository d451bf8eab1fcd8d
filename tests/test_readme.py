"""README.md says what the library does.

The Quick start's `python` block runs as written, and each line it prints is
the `# …` comment of the `print` that wrote it, where every `...` in a comment
stands for the rest of one printed token.  Every name in
`ultraweight.__all__` appears in README.md.
"""

import contextlib
import io
import re
from pathlib import Path

import ultraweight

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_prints_what_its_comments_say():
    text = README.read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected) > 0
    for comment, line in zip(expected, printed):
        pattern = r"\S*".join(re.escape(part) for part in comment.strip().split("..."))
        assert re.fullmatch(pattern, line), (comment, line)


def test_every_exported_name_is_in_the_readme():
    text = README.read_text()
    missing = [name for name in ultraweight.__all__
               if not re.search(rf"(?<!\w){name}(?!\w)", text)]
    assert missing == []
