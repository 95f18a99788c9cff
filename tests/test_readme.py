import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_and_print_what_their_comments_say():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    assert out.getvalue() == "0.5 0.5\n"
    claims = re.findall(r"^(\S.*?\.verdict)\s*#\s*'(\w+)'", blocks[1], re.M)
    assert [verdict for _, verdict in claims] == ["fail", "pass", "pass"]
    for expression, verdict in claims:
        assert eval(expression, namespace) == verdict, expression
