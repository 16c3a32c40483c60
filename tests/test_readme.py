import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_values():
    # run README's "Library quick start" block as written, and check each
    # bare expression against the value its comment states
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library quick start", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    ns, values = {}, []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            expr = ast.Expression(stmt.value)
            values.append(eval(compile(expr, "README.md", "eval"), ns))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), ns)
    sw, signature, even, verdict = values
    assert sw.items() >= {(4,): 1, (3, 1): 0, (2, 2): 1}.items()
    assert signature == -1
    assert even is False
    assert verdict == "distinguished"
