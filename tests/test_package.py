import importlib
import json
import os
import pkgutil
import signal
import subprocess
import sys

import pytest

import rma_tse

# The asymptotic names ``rma_tse`` re-exports; they load with scipy on first use.
LAZY_NAMES = (
    "AccShapeArgs", "AsymptoticPoint", "AsymptoticQuery", "InnerOptimum", "LevelWitness",
    "OptimizerWitness", "SplitPolicy", "SweepSpec", "f_acc", "f_rep", "r_point", "sweep",
)

# Every ``tse`` command outside the asymptotic layer, on small inputs.
EXACT_COMMANDS = (
    ["verify", "--quick"],
    ["acc", "--N", "3", "--ai", "2", "--ao", "1", "--b", "0"],
    ["acc-table", "--N", "4"],
    ["ensemble", "--q", "2", "--K", "2", "--L", "1", "--a", "1", "--b", "2"],
    ["ensemble-table", "--q", "2", "--K", "2", "--L", "2"],
    ["oracle", "--which", "trellis", "--N", "4"],
)


# A 2-alpha fixed-split sweep, small enough for a fresh interpreter.
SWEEP = ["asym-sweep", "--q", "3", "--L", "2", "--delta", "0.1", "--alpha-min", "0.05",
         "--alpha-max", "0.1", "--alpha-steps", "2", "--split", "fixed:0.5,0.5",
         "--grid-points", "7"]


def _env(**extra_env: str):
    """The environment of a new interpreter that imports this ``rma_tse``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(rma_tse.__file__)))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path), **extra_env)


def _fresh(code: str, **extra_env: str):
    """Run ``code`` in a new interpreter on this ``rma_tse``; return its last stdout line as JSON."""
    proc = subprocess.run([sys.executable, "-c", code], env=_env(**extra_env),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_closed_stdout_ends_by_sigpipe():
    # As in `tse acc-table --N 30 | head -1`: the reader leaves after the
    # first of about 1 MB of lines, and tse ends like any filter, silently.
    proc = subprocess.Popen([sys.executable, "-m", "rma_tse.cli", "acc-table", "--N", "30"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env())
    proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (-signal.SIGPIPE, b"")


def test_every_all_name_resolves():
    # The benchmark's span tracer wraps each ``__all__`` name, so a stale one breaks it.
    checked = 0
    for info in pkgutil.iter_modules(rma_tse.__path__):
        module = importlib.import_module(f"rma_tse.{info.name}")
        assert hasattr(module, "__all__"), info.name
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], f"rma_tse.{info.name}.__all__ names missing: {missing}"
        checked += 1
    assert checked >= 6


def test_exact_commands_leave_scipy_unloaded():
    result = _fresh(
        "import contextlib, io, json, sys\n"
        "import rma_tse\n"
        "from rma_tse import cli\n"
        "codes = []\n"
        f"for argv in {EXACT_COMMANDS!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(cli.run(argv))\n"
        "print(json.dumps({'codes': codes,\n"
        "                  'loaded': [m for m in ('scipy', 'rma_tse.asymptotic') if m in sys.modules]}))\n"
    )
    assert result == {"codes": [0] * len(EXACT_COMMANDS), "loaded": []}


def test_sweep_runs_in_process(capsys, monkeypatch):
    # Any TSE_THREADS value is ignored: no worker pool is imported or started.
    result = _fresh(
        "import contextlib, io, json, sys\n"
        "import rma_tse.cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    code = rma_tse.cli.run({SWEEP!r})\n"
        "print(json.dumps({'code': code, 'out': out.getvalue(), 'loaded': [\n"
        "    m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules]}))\n",
        TSE_THREADS="4",
    )
    monkeypatch.delenv("TSE_THREADS", raising=False)
    from rma_tse.cli import run

    assert run(SWEEP) == 0
    assert result == {"code": 0, "out": capsys.readouterr().out, "loaded": []}


def test_lazy_names_resolve_without_an_import():
    result = _fresh(
        "import json, sys\n"
        "import rma_tse\n"
        "before = 'rma_tse.asymptotic' in sys.modules\n"
        "module = rma_tse.asymptotic\n"
        f"same = [getattr(rma_tse, name) is getattr(module, name) for name in {LAZY_NAMES!r}]\n"
        "from rma_tse import r_point, SweepSpec\n"
        "print(json.dumps({'before': before,\n"
        "                  'module': module is sys.modules['rma_tse.asymptotic'],\n"
        "                  'same': same, 'from': [r_point is module.r_point,\n"
        "                                         SweepSpec is module.SweepSpec]}))\n"
    )
    assert result == {"before": False, "module": True, "same": [True] * len(LAZY_NAMES),
                      "from": [True, True]}


def test_lazy_names_are_listed_and_public():
    listed = dir(rma_tse)
    for name in LAZY_NAMES + ("asymptotic",):
        assert name in listed
    for name in LAZY_NAMES:
        assert name in rma_tse.asymptotic.__all__


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rma_tse.no_such_name
    assert not hasattr(rma_tse, "no_such_name")
