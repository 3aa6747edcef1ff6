"""README's Library block runs as written."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_block_runs():
    block = re.search(r"## Library\n\n```python\n(.*?)```", README.read_text(), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert float(out.getvalue()) > 0.9  # the block's comment says ~0.96
