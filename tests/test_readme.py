"""The README's library quick start runs and prints what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_blocks():
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def test_quick_start_prints_the_quoted_lines():
    blocks = quick_start_blocks()
    assert len(blocks) == 3
    printed = []

    def record(*args):
        printed.append(" ".join(str(a) for a in args))

    namespace = {"print": record}  # later blocks reuse earlier imports
    for block in blocks:
        quoted = [line.split("#", 1)[1].strip()
                  for line in block.splitlines() if line.startswith("print(")]
        del printed[:]
        exec(compile(block, str(README), "exec"), namespace)
        assert printed == quoted
