"""The README's library example runs and prints what its comments say."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_its_trailing_comments(capsys):
    text = README.read_text()
    block = text.split("Useful entry points:", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    expected = [line.split("# ", 1)[1].strip()
                for line in block.splitlines() if line.startswith("print(")]
    assert expected == ["[1, 4, 10, 20, 35, 56, 84]", "True", "True", "True"]
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
