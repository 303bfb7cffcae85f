import pathlib
import re

import fanetsim


def test_every_exported_name_resolves():
    assert len(fanetsim.__all__) == len(set(fanetsim.__all__))
    missing = [name for name in fanetsim.__all__ if not hasattr(fanetsim, name)]
    assert missing == []


def test_readme_library_use_block_runs():
    # the documented config and stage API, run as written
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library use\n+```python\n(.*?)```", text, re.S).group(1)
    scope: dict = {}
    exec(compile(block, "README.md (Library use)", "exec"), scope)
    assert scope["assignment"].k == scope["cfg"].fixed_k
    assert scope["model_x"].target == "x" and scope["model_y"].target == "y"
