"""Print golden CLI entries for `golden_cli.json`.

Reads one JSON list of CLI arguments per stdin line, runs
`wordmaps.cli.main(argv)` from the `src/` beside this file with stdout
captured, and prints one entry per line in the file's format: the argv, the
exit code and the sha256 of stdout.  Entries are separated by commas, so the
output pastes before the file's closing bracket once a comma ends the last
existing entry.  The file itself is never written.

A golden guards a change, so record it from the sources before the change,
in a `git worktree` (or `git archive`) of the parent commit:

    echo '["image", "--q", "25", "--word", "x1 x2", "--method", "scan"]' \\
        | python tests/record_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wordmaps.cli import main  # noqa: E402


def record(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:  # an argparse refusal exits with its code
            code = exc.code
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    return {"argv": argv, "exit": code, "stdout_sha256": digest}


if __name__ == "__main__":
    entries = [record(json.loads(line)) for line in sys.stdin if line.strip()]
    print(",\n".join(" " + json.dumps(entry) for entry in entries))
