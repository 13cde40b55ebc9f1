"""Golden CLI output: exit code and sha256 of stdout for a fixed command set.

`golden_cli.json` holds one entry per command: the README's CLI examples,
a few extra formats and fields, prime scans with ramified primes and a
composite modulus, the family-index cap on both of its sides, and error
cases.  Digests rather than text are stored because the certificate output
reaches about 220 KB.  A change that alters any byte of stdout, or any exit
code, fails here.  Each command of the README's CLI examples must be an
entry, so the README's claim that they are pinned is checked.

A new entry is produced from the sources before the change it guards: in a
`git worktree` (or `git archive`) of the parent commit, pipe its argv as a
JSON list to `tests/record_golden.py`, which runs `cli.main(argv)` with
stdout captured and prints the entry line: the return value (or the code of
an argparse refusal's `SystemExit`) and the sha256 of the captured text.
An error that the change itself introduces, such as a new cap, has no
parent output and is recorded after the change; so is a command that the
parent cannot finish in reasonable time, such as a scan with 2*k_pm+1 near
2*10^12.  Existing entries are never regenerated.
"""

import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

from wordmaps.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text(encoding="utf-8"))
README = Path(__file__).parent.parent / "README.md"


@pytest.mark.parametrize("entry", GOLDEN, ids=[" ".join(e["argv"]) for e in GOLDEN])
def test_cli_output_matches_golden(entry, capsys):
    try:
        code = main(list(entry["argv"]))
    except SystemExit as exc:  # an argparse refusal exits with its code
        code = exc.code
    out = capsys.readouterr().out
    assert code == entry["exit"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == entry["stdout_sha256"]


def test_readme_cli_examples_are_goldens():
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"^## CLI\n\n```sh\n(.*?)^```", text, re.M | re.S)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert commands and all(argv[0] == "wordmaps" for argv in commands)
    goldens = [entry["argv"] for entry in GOLDEN]
    assert [argv[1:] for argv in commands if argv[1:] not in goldens] == []
