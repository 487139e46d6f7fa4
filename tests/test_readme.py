"""The README's library quick start, run as written, so that the documented
API cannot drift from the package."""
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_python_blocks_run():
    with open(README) as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(), re.S | re.M)
    assert blocks, "README.md has no python block"
    for block in blocks:
        exec(compile(block, README, "exec"), {"__name__": "readme"})
