import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_snippet_runs(capsys):
    """README's "Library use" python block runs as written."""
    section = README.read_text().split("## Library use", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(snippet, "README.md", "exec"), {})
    assert "standardized_sharpness" in capsys.readouterr().out
