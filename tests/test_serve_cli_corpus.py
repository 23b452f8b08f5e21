"""A fixed corpus of ``repro serve`` command lines pinned end to end.

``tests/data/serve_cli_corpus.json`` lists the corpus: each case is one or
more argv steps run in one scratch directory (``{tmp}`` in an argv token
names it), with optional environment variables, and the captured
outcome.  For a run the pin holds, per step, the exit code and the
stdout, plus the parsed ``--output`` report and a sha256 of every file the
case wrote, all with the scratch path normalised to ``{tmp}``.  A case
whose steps all exit 2 is bad input: it must also print an ``error:``
line, no traceback, compile no plan and write no file.

Together the cases use every ``repro serve`` option, so a refactor of how
flags become a scenario is checked by this file alone.  The pins were
written by this module's own runner::

    PYTHONPATH=src python tests/test_serve_cli_corpus.py --capture

Re-capture only in a commit of its own that explains why an outcome moved.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import pytest

from repro.cli import build_parser, main
from repro.serve import PlanCache

CORPUS_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "serve_cli_corpus.json")
#: the report file every run case writes through ``--output``
OUTPUT_NAME = "out.json"


def _load_corpus():
    with open(CORPUS_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exit_:
        return exit_.code


def run_case(case, tmp):
    """Run one case's steps in directory ``tmp``; return its outcome in
    the pinned shape, plus the captured stderr of every step."""
    steps, errors = [], []
    for argv in case["argv"]:
        argv = [token.replace("{tmp}", tmp) for token in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = _exit_code(argv)
        steps.append({"exit": code,
                      "stdout": out.getvalue().replace(tmp, "{tmp}")})
        errors.append(err.getvalue())
    files, output = {}, None
    for name in sorted(os.listdir(tmp)):
        with open(os.path.join(tmp, name), "r", encoding="utf-8") as handle:
            text = handle.read().replace(tmp, "{tmp}")
        files[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if name == OUTPUT_NAME:
            output = json.loads(text)
    return {"steps": steps, "files": files, "output": output}, errors


@contextlib.contextmanager
def _environment(env):
    saved = {name: os.environ.get(name) for name in env}
    os.environ.update(env)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


CORPUS = _load_corpus()


def _is_bad(case):
    return all(step["exit"] == 2 for step in case["expect"]["steps"])


def _serve_parser():
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action.choices, dict))
    return subparsers.choices["serve"]


def test_corpus_size():
    assert len(CORPUS) >= 40
    assert len({case["name"] for case in CORPUS}) == len(CORPUS)
    assert sum(not _is_bad(case) for case in CORPUS) >= 30
    assert sum(_is_bad(case) for case in CORPUS) >= 10


def test_corpus_uses_every_serve_option():
    used = {token.partition("=")[0] for case in CORPUS
            for argv in case["argv"] for token in argv}
    options = {option for action in _serve_parser()._actions
               for option in action.option_strings} - {"-h", "--help"}
    assert sorted(options - used) == []


@pytest.mark.parametrize("case", CORPUS, ids=[case["name"] for case in CORPUS])
def test_case_matches_pin(case, tmp_path, monkeypatch):
    warmups = []
    if _is_bad(case):
        monkeypatch.setattr(PlanCache, "warmup",
                            lambda *args, **kwargs: warmups.append(args))
    with _environment(case.get("env", {})):
        outcome, errors = run_case(case, str(tmp_path))
    assert outcome == case["expect"]
    if _is_bad(case):
        for err in errors:
            assert "error:" in err
            assert "Traceback" not in err
        assert warmups == []
        assert outcome["files"] == {}


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: python tests/test_serve_cli_corpus.py --capture")
    for case in CORPUS:
        with tempfile.TemporaryDirectory() as tmp, \
                _environment(case.get("env", {})):
            case["expect"], _ = run_case(case, tmp)
    with open(CORPUS_PATH, "w", encoding="utf-8") as handle:
        json.dump(CORPUS, handle, indent=1)
        handle.write("\n")
