"""README's "Calling the library" block against the code: each call there
names the parameters of the function it calls, in order, with their
defaults, so that a parameter added or removed cannot leave it behind."""

import ast
import inspect
import re
from pathlib import Path

import pytest

import painleve_calogero as pc
from painleve_calogero import verify

README = Path(__file__).resolve().parents[1] / "README.md"
OWNERS = {"traj": pc.Trajectory}  # the objects the block calls methods of


def _documented_calls():
    section = README.read_text(encoding="utf-8").split("## Calling the library", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    return [node for node in ast.walk(ast.parse(block)) if isinstance(node, ast.Call)]


_CALLS = _documented_calls()


def test_readme_block_parses_to_its_calls():
    assert len(_CALLS) >= 16


@pytest.mark.parametrize("call", _CALLS, ids=[ast.unparse(c.func) for c in _CALLS])
def test_readme_call_matches_the_signature(call):
    func = call.func
    if isinstance(func, ast.Attribute):  # a method: its self is not written
        params = list(inspect.signature(getattr(OWNERS[func.value.id], func.attr))
                      .parameters.values())[1:]
    else:
        params = inspect.signature(getattr(pc, func.id, None) or getattr(verify, func.id)
                                   ).parameters.values()
    documented = ([(a.id, inspect.Parameter.empty) for a in call.args]
                  + [(k.arg, ast.literal_eval(k.value)) for k in call.keywords])
    assert documented == [(p.name, p.default) for p in params]
