"""The CLI's pinned battery: each case of tests/pinned/cli_battery.json
runs ``cli.main`` in process and must give the pinned exit code, stdout,
stderr and ``{tmp}/out.csv`` (null when no file is written), byte for
byte.  The cases cover every command succeeding in csv and json, and one
config for each refusal that ``cli.py`` raises itself.  ``{tmp}`` in a
case stands for the case's own temporary folder.

Run this file as a script (``PYTHONPATH=src python
tests/test_cli_battery.py``) to pin the outputs of the current code.
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

from wavedet import cli

_BATTERY = pathlib.Path(__file__).resolve().parent / "pinned" / \
    "cli_battery.json"
_CASES = json.loads(_BATTERY.read_text(encoding="utf-8"))


def _run(case, tmp):
    """(exit code, stdout, stderr, out.csv) of one case, run in the
    folder tmp."""
    config = pathlib.Path(tmp) / "config.json"
    if "config" in case:
        config.write_text(json.dumps(case["config"]), encoding="utf-8")
    elif "config_text" in case:
        config.write_text(case["config_text"], encoding="utf-8")
    argv = [case["command"], "--config", str(config),
            *(arg.replace("{tmp}", str(tmp)) for arg in case["argv"])]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    written = pathlib.Path(tmp) / "out.csv"
    texts = [out.getvalue(), err.getvalue(),
             written.read_text(encoding="utf-8") if written.exists() else None]
    return (code, *(text and text.replace(str(tmp), "{tmp}")
                    for text in texts))


@pytest.mark.parametrize("case", _CASES, ids=[c["id"] for c in _CASES])
def test_cli_battery_case(case, tmp_path):
    assert _run(case, tmp_path) == (case["exit"], case["stdout"],
                                    case["stderr"], case["file"])


if __name__ == "__main__":
    for case in _CASES:
        with tempfile.TemporaryDirectory() as tmp:
            (case["exit"], case["stdout"], case["stderr"],
             case["file"]) = _run(case, tmp)
    _BATTERY.write_text(json.dumps(_CASES, indent=1) + "\n",
                        encoding="utf-8")
    sys.exit(0)
