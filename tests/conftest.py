"""Session set-up shared by every test module, and the command line's failure contract."""

import contextlib
import dataclasses
import io
import re
import warnings
from pathlib import Path
from unittest import mock

from qevo import cli, evo

# When a Hypothesis test fails, its report hook imports this module, which
# imports libcst, whose import raises a DeprecationWarning (of
# mypy_extensions); under `-W error` that ends the whole session with an
# INTERNALERROR, so the failure goes unreported and later tests never run.
# Imported once here, with the warning ignored, the hook finds it loaded.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is not installed: the hook reports without it
        pass


def run_files(run: Path) -> dict | None:
    """Each file of a run directory by name, with its bytes; None if there is none."""
    return {path.name: path.read_bytes() for path in sorted(run.iterdir())} \
        if run.exists() else None


@dataclasses.dataclass(frozen=True)
class Outcome:
    """What one `qevo` command did: its exit status, what it printed, the
    plans it scored in this process and its run directory before and after."""
    status: int
    out: str
    err: str
    scored: int
    run_before: dict | None
    run_after: dict | None


def run_qevo(argv: list[str], run: Path | None = None) -> Outcome:
    """Run `qevo argv` in this process, counting the calls of
    `evo.batch_fitness` and `evo.episode_returns` and reading the run
    directory `run` before and after.  A plain function, not a fixture, so
    that a Hypothesis test can call it once per example."""
    before = None if run is None else run_files(run)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(evo, "batch_fitness", wraps=evo.batch_fitness) as fitness, \
            mock.patch.object(evo, "episode_returns", wraps=evo.episode_returns) as returns, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return Outcome(status, out.getvalue(), err.getvalue(),
                   fitness.call_count + returns.call_count, before,
                   None if run is None else run_files(run))


def assert_rejected(outcome: Outcome, text: str = "", exact: bool = False,
                    may_score: bool = False) -> None:
    """The failure contract of `train`, `resume` and `eval`: exit status 1,
    one stderr line `error: ...` holding `text` (or `error: {text}` itself
    if `exact`), nothing on stdout, no plan scored (unless `may_score`: a
    train stops at the first generation whose children overflow) and the
    run directory as it was: absent after a train, byte for byte the same
    after a resume, a missing stats.csv still missing."""
    assert outcome.status == 1, outcome
    assert re.fullmatch(r"error: [^\n]*\n", outcome.err), outcome.err
    line = outcome.err[:-1]
    assert line == f"error: {text}" if exact else text in line, (line, text)
    assert outcome.out == "", outcome.out
    assert may_score or outcome.scored == 0, line
    assert outcome.run_after == outcome.run_before, line
