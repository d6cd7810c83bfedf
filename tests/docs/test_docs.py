"""The documentation is executable evidence, not prose.

Three guards keep ``docs/`` honest as the tree moves:

- every fenced ``>>>`` example in the docs runs under doctest against
  the real library, so a renamed function or changed output breaks CI
  instead of silently rotting the guide;
- every ``python -m repro`` line of a ``bash`` block parses under the
  real CLI parser, so a removed command or flag cannot stay documented;
- every relative link between markdown files resolves, so the docs
  index never points at a moved or deleted page.
"""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

REPO = Path(__file__).resolve().parents[2]
DOCS = REPO / "docs"

#: Markdown files whose fenced ``>>>`` blocks must execute.
DOCTESTED = sorted(DOCS.glob("*.md"))

#: Markdown files whose relative links must resolve.
LINKED = [REPO / "README.md", *sorted(DOCS.glob("*.md"))]

#: Markdown files whose documented ``python -m repro`` commands must parse.
COMMANDED = [
    REPO / "README.md",
    REPO / "EXPERIMENTS.md",
    REPO / "baselines" / "README.md",
    *sorted(DOCS.glob("*.md")),
]

FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)
BASH = re.compile(r"```bash\n(.*?)```", re.DOTALL)
# [text](target) — excluding images and in-page anchors.
LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)#\s]+)(?:#[^)]*)?\)")


def doctest_blocks(path):
    """The fenced python blocks of ``path`` that contain a ``>>>`` prompt."""
    return [
        block
        for block in FENCE.findall(path.read_text(encoding="utf-8"))
        if ">>>" in block
    ]


@pytest.mark.parametrize("path", DOCTESTED, ids=lambda p: p.name)
def test_fenced_examples_execute(path):
    blocks = doctest_blocks(path)
    if not blocks:
        pytest.skip(f"{path.name} has no >>> examples")
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS, verbose=False)
    parser = doctest.DocTestParser()
    globs = {}  # blocks in one file share a namespace, like a REPL session
    for index, block in enumerate(blocks):
        test = doctest.DocTest(
            examples=parser.get_examples(block),
            globs=globs,
            name=f"{path.name}[block {index}]",
            filename=str(path),
            lineno=0,
            docstring=block,
        )
        runner.run(test, clear_globs=False)
        globs.update(test.globs)  # DocTest copies globs; carry names forward
    assert runner.failures == 0, (
        f"{runner.failures} doctest failure(s) in {path.name} — "
        "run `python -m doctest` style output above for details"
    )


def repro_commands(path):
    """The arguments after ``repro`` of each ``python -m repro`` line in
    the bash blocks of ``path`` (``\\`` continuations joined, comments
    dropped)."""
    return [
        words[words.index("repro") + 1 :]
        for block in BASH.findall(path.read_text(encoding="utf-8"))
        for line in block.replace("\\\n", " ").splitlines()
        if "python -m repro" in line
        for words in [shlex.split(line, comments=True)]
    ]


def test_documented_commands_parse():
    parser = build_parser()
    commands = [(path, argv) for path in COMMANDED for argv in repro_commands(path)]
    assert commands
    refused = []
    for path, argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            refused.append(f"{path.relative_to(REPO)}: repro {shlex.join(argv)}")
    assert not refused, "documented command(s) the CLI refuses:\n" + "\n".join(refused)


@pytest.mark.parametrize("path", LINKED, ids=lambda p: str(p.relative_to(REPO)))
def test_relative_links_resolve(path):
    text = path.read_text(encoding="utf-8")
    broken = []
    for target in LINK.findall(text):
        if "://" in target or target.startswith("mailto:"):
            continue  # external; availability is not this repo's contract
        resolved = (path.parent / target).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, f"broken relative link(s) in {path.name}: {broken}"


def test_docs_index_lists_every_page():
    index = (DOCS / "README.md").read_text(encoding="utf-8")
    missing = [
        page.name
        for page in DOCS.glob("*.md")
        if page.name != "README.md" and f"({page.name})" not in index
    ]
    assert not missing, f"docs/README.md does not link: {missing}"
